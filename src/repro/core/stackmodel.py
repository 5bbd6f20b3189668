"""Runtime encoding-stack entries.

DeltaPath's runtime state is ``(stack, current ID)``. Three events push an
entry and reset the ID to zero (paper Sections 3.2 and 4.1):

* invoking an **anchor** node,
* taking a **recursive** (back-edge) call,
* detecting a hazardous **UCP** at an instrumented function's entry.

The paper packs the entry type into two bits borrowed from the method
identifier integer; we keep typed records carrying the same information
(see :func:`pack_entry` / :func:`unpack_entry` for the 2-bit encoding the
paper describes, provided to demonstrate representability).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import RuntimeEncodingError
from repro.graph.callgraph import CallSite

__all__ = ["EntryKind", "StackEntry", "pack_entry", "unpack_entry"]


class EntryKind(enum.IntEnum):
    """Why an encoding-stack entry was pushed (the paper's 2 type bits)."""

    ANCHOR = 0
    RECURSION = 1
    UCP = 2


@dataclass(frozen=True)
class StackEntry:
    """One element of the runtime encoding stack.

    Attributes
    ----------
    kind:
        Why the entry was pushed.
    node:
        * ANCHOR — the anchor node invoked;
        * RECURSION — the callee of the recursive call (where the new
          piece begins);
        * UCP — the instrumented function that detected the UCP.
    saved_id:
        The encoding ID at push time (restored on pop).
    site:
        * RECURSION — the back-edge call site taken;
        * UCP — the last instrumented call site (whose expected-SID
          failed the check); None for ANCHOR entries.
    expected_sid:
        UCP entries only: the expected SID that mismatched.
    resume_node:
        UCP entries only: the node whose (piece-relative) encoding value
        the saved ID represents — where decoding of the outer piece
        resumes. This is either the nearest *executing* instrumented
        function, or the expected dispatch target of an instrumented call
        that detoured into uninstrumented code before reaching it.
        ``None`` means the outer piece ends at its own start node.
    resume_executed:
        UCP entries only: whether ``resume_node`` actually executed.
        False means the call at the last instrumented site went into
        uninstrumented code, so the expected target never ran and should
        not be displayed as part of the context (paper's Figure 6:
        decoding ABXE must not claim D ran).
    """

    kind: EntryKind
    node: str
    saved_id: int
    site: Optional[CallSite] = None
    expected_sid: Optional[int] = None
    resume_node: Optional[str] = None
    resume_executed: bool = True

    def __hash__(self) -> int:
        # Entries are hashed constantly — every decode-cache lookup and
        # every batch-grouping pass hashes whole stacks of them — so the
        # field-tuple hash is computed once and pinned on the frozen
        # instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.kind, self.node, self.saved_id, self.site,
                self.expected_sid, self.resume_node, self.resume_executed,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # The pinned hash is only valid under this process's string-hash
        # seed; an unpickled entry computes its own.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def pack_entry(
    entry: StackEntry, method_ids: Dict[str, int], id_bits: int = 30
) -> Tuple[int, int]:
    """Pack an entry into two machine words, as the paper's footnote 2
    describes: two bits of the method-identifier word carry the kind.

    Returns ``(tagged_method_word, saved_id)``. Site/SID details are
    dropped — the paper's runtime also keeps only these two words per
    entry and relies on redundant static information during decoding.
    """
    method_id = method_ids[entry.node]
    if method_id >= (1 << id_bits):
        raise RuntimeEncodingError(
            f"method id {method_id} needs more than {id_bits} bits"
        )
    return (int(entry.kind) << id_bits) | method_id, entry.saved_id


def unpack_entry(
    tagged_word: int,
    saved_id: int,
    method_names: Dict[int, str],
    id_bits: int = 30,
) -> StackEntry:
    """Inverse of :func:`pack_entry` (site/SID details are not recoverable)."""
    kind = EntryKind(tagged_word >> id_bits)
    method_id = tagged_word & ((1 << id_bits) - 1)
    try:
        node = method_names[method_id]
    except KeyError:
        raise RuntimeEncodingError(f"unknown method id {method_id}") from None
    return StackEntry(kind=kind, node=node, saved_id=saved_id)
