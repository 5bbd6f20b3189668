"""JIP — a mini object-oriented language ("Java-like Instrumented Programs").

The paper's system consumes Java bytecode; its encoding algorithms only
need (a) a call graph with call-site-labelled edges and per-site dispatch
sets, and (b) a runtime that executes calls/returns with dynamic dispatch
and dynamic class loading. JIP provides exactly that surface:

* classes with single inheritance, method overriding, and two flags —
  ``dynamic`` (loaded only at runtime, invisible to static analysis, the
  paper's dynamically loaded classes) and ``library`` (JDK-like, the unit
  selective encoding excludes);
* method bodies made of statements: static calls, virtual calls
  (dispatched on the runtime receiver type), allocations, loops, weighted
  branches, busy work, and event markers (context observation points).

Programs are pure data; :mod:`repro.analysis` builds call graphs from
them and :mod:`repro.runtime` executes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DispatchError, ProgramError

__all__ = [
    "Stmt",
    "StaticCall",
    "VirtualCall",
    "New",
    "Loop",
    "Branch",
    "Work",
    "Event",
    "Method",
    "Klass",
    "Program",
    "MethodRef",
]


@dataclass(frozen=True, order=True)
class MethodRef:
    """A qualified method name ``Klass.method``."""

    klass: str
    method: str

    def __str__(self) -> str:
        return f"{self.klass}.{self.method}"

    @staticmethod
    def parse(text: str) -> "MethodRef":
        klass, sep, method = text.partition(".")
        if not sep or not klass or not method:
            raise ProgramError(f"bad method reference {text!r}")
        return MethodRef(klass, method)


class Stmt:
    """Base class for statements (empty; used for isinstance checks)."""

    __slots__ = ()


@dataclass(frozen=True)
class StaticCall(Stmt):
    """A call with a statically fixed target (static/private/final)."""

    target: MethodRef


@dataclass(frozen=True)
class VirtualCall(Stmt):
    """A call dispatched on the runtime receiver's class.

    ``base`` is the static receiver type; ``method`` the invoked method
    name. The actual target is ``resolve(runtime_class, method)``.
    """

    base: str
    method: str


@dataclass(frozen=True)
class New(Stmt):
    """Instantiate ``klass``: adds it to the runtime receiver pools and,
    if the class is dynamic, triggers its loading."""

    klass: str


@dataclass(frozen=True)
class Loop(Stmt):
    """Repeat ``body`` ``count`` times."""

    count: int
    body: Tuple[Stmt, ...]

    def __post_init__(self):
        if self.count < 0:
            raise ProgramError(f"negative loop count {self.count}")


@dataclass(frozen=True)
class Branch(Stmt):
    """Take ``then`` with probability ``weight`` (seeded), else ``orelse``."""

    weight: float
    then: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ProgramError(f"branch weight {self.weight} outside [0, 1]")


@dataclass(frozen=True)
class Work(Stmt):
    """Busy work of ``units`` abstract cost (models non-call execution)."""

    units: int


@dataclass(frozen=True)
class Event(Stmt):
    """A context observation point (e.g. a logged system call)."""

    tag: str


@dataclass
class Method:
    """A method body belonging to a class."""

    name: str
    body: Tuple[Stmt, ...] = ()

    def __post_init__(self):
        self.body = tuple(self.body)


@dataclass
class Klass:
    """A class: name, optional superclass, methods, and loading flags."""

    name: str
    superclass: Optional[str] = None
    methods: Dict[str, Method] = field(default_factory=dict)
    dynamic: bool = False
    library: bool = False

    def define(self, method: Method) -> "Klass":
        if method.name in self.methods:
            raise ProgramError(
                f"duplicate method {self.name}.{method.name}"
            )
        self.methods[method.name] = method
        return self


class Program:
    """A closed JIP program: classes plus the entry method."""

    def __init__(self, entry: MethodRef):
        self.entry = entry
        self._classes: Dict[str, Klass] = {}
        self._subclasses: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_class(self, klass: Klass) -> Klass:
        if klass.name in self._classes:
            raise ProgramError(f"duplicate class {klass.name!r}")
        if klass.superclass is not None and klass.superclass not in self._classes:
            raise ProgramError(
                f"class {klass.name!r} extends unknown {klass.superclass!r} "
                f"(declare superclasses first)"
            )
        self._classes[klass.name] = klass
        self._subclasses.setdefault(klass.name, [])
        if klass.superclass is not None:
            self._subclasses[klass.superclass].append(klass.name)
        return klass

    # ------------------------------------------------------------------
    # Hierarchy queries
    # ------------------------------------------------------------------
    @property
    def classes(self) -> List[Klass]:
        return list(self._classes.values())

    def klass(self, name: str) -> Klass:
        try:
            return self._classes[name]
        except KeyError:
            raise ProgramError(f"unknown class {name!r}") from None

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def direct_subclasses(self, name: str) -> List[str]:
        return list(self._subclasses.get(name, ()))

    def subtypes(self, name: str, include_dynamic: bool = True) -> List[str]:
        """``name`` and all transitive subclasses, declaration order."""
        self.klass(name)  # existence check
        result: List[str] = []
        queue = [name]
        cursor = 0
        while cursor < len(queue):
            current = queue[cursor]
            cursor += 1
            klass = self._classes[current]
            if include_dynamic or not klass.dynamic:
                result.append(current)
            queue.extend(self._subclasses.get(current, ()))
        return result

    def supertypes(self, name: str) -> List[str]:
        """``name`` and its superclass chain, bottom-up."""
        chain = [name]
        current = self.klass(name)
        while current.superclass is not None:
            chain.append(current.superclass)
            current = self._classes[current.superclass]
        return chain

    def is_subtype(self, sub: str, base: str) -> bool:
        return base in self.supertypes(sub)

    # ------------------------------------------------------------------
    # Method resolution (Java-style)
    # ------------------------------------------------------------------
    def resolve(self, klass_name: str, method_name: str) -> MethodRef:
        """Find the method ``method_name`` visible on ``klass_name`` by
        walking up the superclass chain."""
        for candidate in self.supertypes(klass_name):
            if method_name in self._classes[candidate].methods:
                return MethodRef(candidate, method_name)
        raise DispatchError(
            f"class {klass_name!r} has no method {method_name!r} "
            f"(searched {self.supertypes(klass_name)})"
        )

    def method(self, ref: MethodRef) -> Method:
        klass = self.klass(ref.klass)
        try:
            return klass.methods[ref.method]
        except KeyError:
            raise ProgramError(f"unknown method {ref}") from None

    def has_method(self, ref: MethodRef) -> bool:
        return (
            ref.klass in self._classes
            and ref.method in self._classes[ref.klass].methods
        )

    def methods(self) -> Iterator[Tuple[MethodRef, Method]]:
        """All (ref, method) pairs in declaration order."""
        for klass in self._classes.values():
            for method in klass.methods.values():
                yield MethodRef(klass.name, method.name), method

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the program is closed and well-formed."""
        if not self.has_method(self.entry):
            raise ProgramError(f"entry method {self.entry} does not exist")
        if self.klass(self.entry.klass).dynamic:
            raise ProgramError("entry class cannot be dynamic")
        for ref, method in self.methods():
            for stmt in iter_stmts(method.body):
                self._validate_stmt(ref, stmt)

    def _validate_stmt(self, owner: MethodRef, stmt: Stmt) -> None:
        if isinstance(stmt, StaticCall):
            if not self.has_method(stmt.target):
                raise ProgramError(
                    f"{owner}: static call to unknown {stmt.target}"
                )
        elif isinstance(stmt, VirtualCall):
            if stmt.base not in self._classes:
                raise ProgramError(
                    f"{owner}: virtual call on unknown class {stmt.base!r}"
                )
            # At least one subtype (possibly dynamic) must resolve it.
            resolved = False
            for sub in self.subtypes(stmt.base):
                try:
                    self.resolve(sub, stmt.method)
                    resolved = True
                    break
                except DispatchError:
                    continue
            if not resolved:
                raise ProgramError(
                    f"{owner}: virtual call {stmt.base}.{stmt.method} has "
                    f"no resolvable target"
                )
        elif isinstance(stmt, New):
            if stmt.klass not in self._classes:
                raise ProgramError(
                    f"{owner}: new of unknown class {stmt.klass!r}"
                )


def iter_stmts(body: Sequence[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in ``body``, recursing into loops/branches."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, Loop):
            yield from iter_stmts(stmt.body)
        elif isinstance(stmt, Branch):
            yield from iter_stmts(stmt.then)
            yield from iter_stmts(stmt.orelse)
