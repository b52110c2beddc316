"""Translation-rule model: canonical templates, matching, instantiation.

A :class:`TranslationRule` maps a short guest instruction sequence to a host
sequence.  Rules are stored in *canonical* form:

* registers are renamed to indices in guest first-occurrence order, and the
  host side is renamed through the verified one-to-one mapping so host
  register ``k`` corresponds to guest register ``k`` (scratch registers used
  by parameterization auxiliaries get indices past the mapped ones);
* immediates (including memory displacements) become value *slots*: equal
  values share a slot, so the intra-rule equality pattern — the data
  dependences of paper fig. 8 — is part of the rule key and is enforced
  when the rule is matched against concrete guest code.

``guest_key`` computes the lookup key for a guest window; rules whose
immediates were successfully generalized drop the concrete values from
their key (they match any immediate), value-specific rules keep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RuleError
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Operand, Reg

Descriptor = Tuple
CanonicalKey = Tuple


def _canonicalize(
    instructions: Sequence[Instruction],
    reg_index: Dict[str, int],
    imm_slots: Dict[int, int],
    with_values: bool,
    collect: bool,
) -> CanonicalKey:
    """Canonical descriptor tuple for an instruction sequence.

    With ``collect=True``, new registers/immediates extend the maps; with
    ``collect=False`` unknown registers raise (host side must be fully
    covered by the mapping + declared temps).
    """

    def reg_idx(name: str) -> int:
        if name not in reg_index:
            if not collect:
                raise RuleError(f"register {name!r} outside the rule mapping")
            reg_index[name] = len(reg_index)
        return reg_index[name]

    def imm_slot(value: int) -> int:
        if value not in imm_slots:
            if not collect:
                raise RuleError(f"immediate {value} has no guest counterpart")
            imm_slots[value] = len(imm_slots)
        return imm_slots[value]

    items = []
    for insn in instructions:
        descriptors: List[Descriptor] = []
        for op in insn.operands:
            if isinstance(op, Reg):
                descriptors.append(("r", reg_idx(op.name)))
            elif isinstance(op, Imm):
                slot = imm_slot(op.value)
                descriptors.append(
                    ("iv", slot, op.value) if with_values else ("i", slot)
                )
            elif isinstance(op, Mem):
                base = reg_idx(op.base.name) if op.base is not None else None
                index = reg_idx(op.index.name) if op.index is not None else None
                slot = imm_slot(op.disp)
                descriptors.append(
                    ("mv", base, index, slot, op.disp, op.scale)
                    if with_values
                    else ("m", base, index, slot, op.scale)
                )
            elif isinstance(op, Label):
                descriptors.append(("l",))
            else:
                raise RuleError(f"operand {op!r} cannot appear in a rule")
        items.append((insn.mnemonic, tuple(descriptors)))
    return tuple(items)


def guest_key(
    instructions: Sequence[Instruction], with_values: bool
) -> CanonicalKey:
    """Lookup key for a guest window (canonical renaming applied)."""
    return _canonicalize(instructions, {}, {}, with_values, collect=True)


def window_keys(
    instructions: Sequence[Instruction],
) -> Tuple[CanonicalKey, CanonicalKey]:
    """(generalized key, value-specific key) in one canonicalization pass.

    Equivalent to ``(guest_key(w, False), guest_key(w, True))`` — register
    indices and immediate slots grow in first-occurrence order regardless of
    ``with_values``, so both key forms share one walk over the window.  For
    immediate-free windows the two forms are the same tuple and the same
    object is returned twice (callers may use ``is`` to skip the second
    probe).
    """
    reg_index: Dict[str, int] = {}
    imm_slots: Dict[int, int] = {}

    def reg_idx(name: str) -> int:
        if name not in reg_index:
            reg_index[name] = len(reg_index)
        return reg_index[name]

    def imm_slot(value: int) -> int:
        if value not in imm_slots:
            imm_slots[value] = len(imm_slots)
        return imm_slots[value]

    general_items = []
    specific_items = []
    has_values = False
    for insn in instructions:
        general: List[Descriptor] = []
        specific: List[Descriptor] = []
        for op in insn.operands:
            if isinstance(op, Reg):
                descriptor = ("r", reg_idx(op.name))
                general.append(descriptor)
                specific.append(descriptor)
            elif isinstance(op, Imm):
                slot = imm_slot(op.value)
                general.append(("i", slot))
                specific.append(("iv", slot, op.value))
                has_values = True
            elif isinstance(op, Mem):
                base = reg_idx(op.base.name) if op.base is not None else None
                index = reg_idx(op.index.name) if op.index is not None else None
                slot = imm_slot(op.disp)
                general.append(("m", base, index, slot, op.scale))
                specific.append(("mv", base, index, slot, op.disp, op.scale))
                has_values = True
            elif isinstance(op, Label):
                descriptor = ("l",)
                general.append(descriptor)
                specific.append(descriptor)
            else:
                raise RuleError(f"operand {op!r} cannot appear in a rule")
        general_items.append((insn.mnemonic, tuple(general)))
        specific_items.append((insn.mnemonic, tuple(specific)))
    general_key = tuple(general_items)
    if not has_values:
        return general_key, general_key
    return general_key, tuple(specific_items)


def window_key_prefixes(
    instructions: Sequence[Instruction],
) -> List[Tuple[CanonicalKey, CanonicalKey]]:
    """Key pairs for **every prefix** of the sequence, in one walk.

    ``result[k - 1]`` equals ``window_keys(instructions[:k])`` — canonical
    renaming assigns indices in first-occurrence order, so the maps built
    while walking a long window are, at each step, exactly the maps the
    prefix would have built on its own.  This is what lets the translator's
    longest-match probe fingerprint a position once instead of once per
    candidate length (cost ``n`` instruction visits instead of
    ``n + (n-1) + ... + 1``).

    Stops at the first instruction that cannot be canonicalized; the
    prefixes computed up to that point are still returned (shorter windows
    remain probeable, exactly as per-window :func:`window_keys` calls would
    behave).
    """
    reg_index: Dict[str, int] = {}
    imm_slots: Dict[int, int] = {}

    def reg_idx(name: str) -> int:
        if name not in reg_index:
            reg_index[name] = len(reg_index)
        return reg_index[name]

    def imm_slot(value: int) -> int:
        if value not in imm_slots:
            imm_slots[value] = len(imm_slots)
        return imm_slots[value]

    general_items: List[Tuple] = []
    specific_items: List[Tuple] = []
    has_values = False
    pairs: List[Tuple[CanonicalKey, CanonicalKey]] = []
    for insn in instructions:
        general: List[Descriptor] = []
        specific: List[Descriptor] = []
        try:
            for op in insn.operands:
                if isinstance(op, Reg):
                    descriptor = ("r", reg_idx(op.name))
                    general.append(descriptor)
                    specific.append(descriptor)
                elif isinstance(op, Imm):
                    slot = imm_slot(op.value)
                    general.append(("i", slot))
                    specific.append(("iv", slot, op.value))
                    has_values = True
                elif isinstance(op, Mem):
                    base = reg_idx(op.base.name) if op.base is not None else None
                    index = (
                        reg_idx(op.index.name) if op.index is not None else None
                    )
                    slot = imm_slot(op.disp)
                    general.append(("m", base, index, slot, op.scale))
                    specific.append(
                        ("mv", base, index, slot, op.disp, op.scale)
                    )
                    has_values = True
                elif isinstance(op, Label):
                    descriptor = ("l",)
                    general.append(descriptor)
                    specific.append(descriptor)
                else:
                    raise RuleError(f"operand {op!r} cannot appear in a rule")
        except RuleError:
            break
        general_items.append((insn.mnemonic, tuple(general)))
        specific_items.append((insn.mnemonic, tuple(specific)))
        general_key = tuple(general_items)
        pairs.append(
            (general_key, general_key)
            if not has_values
            else (general_key, tuple(specific_items))
        )
    return pairs


def window_bindings(
    instructions: Sequence[Instruction],
) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """(registers in first-occurrence order, immediate slot values)."""
    reg_index: Dict[str, int] = {}
    imm_slots: Dict[int, int] = {}
    _canonicalize(instructions, reg_index, imm_slots, False, collect=True)
    regs = tuple(reg_index)
    imms = tuple(sorted(imm_slots, key=imm_slots.get))
    return regs, imms


@dataclass(frozen=True)
class TranslationRule:
    """A verified guest -> host translation rule (canonical template)."""

    #: template instructions exactly as learned (concrete register names).
    guest: Tuple[Instruction, ...]
    host: Tuple[Instruction, ...]
    #: guest register name -> host register name (one-to-one), as pairs.
    reg_mapping: Tuple[Tuple[str, str], ...]
    #: host scratch registers (parameterization auxiliaries only).
    host_temps: Tuple[str, ...] = ()
    #: per-flag verdict: equiv / mismatch / preserved / clobbered.
    flag_status: Tuple[Tuple[str, str], ...] = ()
    #: immediates generalized (rule matches any immediate values)?
    imm_generalized: bool = False
    #: provenance: "learned", "opcode-param", "addrmode-param", "manual".
    origin: str = "learned"
    #: free-form constraint tags (e.g. "aux:bic", "pc-operand").
    constraints: Tuple[str, ...] = ()

    def __hash__(self) -> int:
        """The generated field-tuple hash, computed once per rule.

        Every applied rule is hashed per translated block and per block
        per run (rule-usage accounting); the generated method would walk
        all eight fields each time.  Kept out of pickled state: a string
        hash is only valid in the process that computed it.
        """
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash(
                (
                    self.guest,
                    self.host,
                    self.reg_mapping,
                    self.host_temps,
                    self.flag_status,
                    self.imm_generalized,
                    self.origin,
                    self.constraints,
                )
            )
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # -- derived views ---------------------------------------------------------

    @property
    def mapping_dict(self) -> Dict[str, str]:
        return dict(self.reg_mapping)

    @property
    def flags(self) -> Dict[str, str]:
        return dict(self.flag_status)

    @property
    def guest_length(self) -> int:
        return len(self.guest)

    def key(self) -> CanonicalKey:
        """The rule's index key, computed once per rule (cached like
        :meth:`_instantiation_template`)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = guest_key(self.guest, with_values=not self.imm_generalized)
            object.__setattr__(self, "_key", cached)
        return cached

    def canonical_identity(self) -> Tuple:
        """Full dedup identity: guest key + canonical host template + flags.

        Computed once per rule: :class:`~repro.learning.ruleset.RuleSet`
        asks for it on every ``add``.  Its first element is :meth:`key`,
        which is cached with it.
        """
        cached = self.__dict__.get("_identity")
        if cached is not None:
            return cached
        reg_index: Dict[str, int] = {}
        imm_slots: Dict[int, int] = {}
        guest_canon = _canonicalize(
            self.guest, reg_index, imm_slots, not self.imm_generalized, collect=True
        )
        host_index = {
            self.mapping_dict[g]: i for g, i in sorted(reg_index.items(), key=lambda kv: kv[1])
            if g in self.mapping_dict
        }
        for temp in self.host_temps:
            host_index[temp] = len(host_index)
        host_canon = _canonicalize(
            self.host, host_index, dict(imm_slots), not self.imm_generalized, collect=False
        )
        cached = (guest_canon, host_canon, tuple(sorted(self.flag_status)), self.constraints)
        object.__setattr__(self, "_identity", cached)
        object.__setattr__(self, "_key", guest_canon)
        return cached

    # -- instantiation -----------------------------------------------------------

    def _instantiation_template(self) -> Tuple:
        """Template-side instantiation context, computed once per rule.

        The template bindings, inverse register mapping and temp indices
        depend only on the (immutable) rule, yet were historically rebuilt
        on every application — a measurable slice of translate time.  The
        dataclass is frozen, so the lazy cache goes through
        ``object.__setattr__``.
        """
        cached = self.__dict__.get("_inst_template")
        if cached is None:
            tpl_regs, tpl_imms = window_bindings(self.guest)
            inverse = {h: g for g, h in self.reg_mapping}
            temp_index = {name: i for i, name in enumerate(self.host_temps)}
            cached = (tpl_regs, tpl_imms, inverse, temp_index)
            object.__setattr__(self, "_inst_template", cached)
        return cached

    def matches(self, window: Sequence[Instruction]) -> bool:
        try:
            return guest_key(window, with_values=not self.imm_generalized) == self.key()
        except RuleError:
            return False

    def instantiate(
        self,
        window: Sequence[Instruction],
        host_reg: Callable[[str], Operand],
        scratch: Callable[[int], Operand],
        label_map: Callable[[str], str],
    ) -> Tuple[Instruction, ...]:
        """Emit host instructions for a concrete guest *window*.

        ``host_reg`` maps a concrete guest register name to the host operand
        holding it; ``scratch`` supplies the i-th scratch operand for
        auxiliary instructions; ``label_map`` translates the guest branch
        target into the host-side label.
        """
        win_regs, win_imms = window_bindings(window)
        tpl_regs, tpl_imms, inverse, temp_index = self._instantiation_template()
        if len(win_regs) != len(tpl_regs) or len(win_imms) != len(tpl_imms):
            raise RuleError("window does not match rule shape")
        guest_of_template = dict(zip(tpl_regs, win_regs))
        imm_of_slot = dict(zip(tpl_imms, win_imms))
        window_labels = [
            op.name for insn in window for op in insn.operands if isinstance(op, Label)
        ]

        # Two closures, not one recursive one: a closure that calls itself
        # refers to itself, a cycle only the cyclic collector frees.
        def reg_operand(op: Reg) -> Operand:
            if op.name in inverse:
                return host_reg(guest_of_template[inverse[op.name]])
            if op.name in temp_index:
                return scratch(temp_index[op.name])
            raise RuleError(f"host register {op.name!r} outside rule mapping")

        def host_operand(op: Operand) -> Operand:
            if isinstance(op, Reg):
                return reg_operand(op)
            if isinstance(op, Imm):
                return Imm(imm_of_slot[op.value]) if self.imm_generalized else op
            if isinstance(op, Mem):
                base = reg_operand(op.base) if op.base is not None else None
                index = reg_operand(op.index) if op.index is not None else None
                disp = imm_of_slot[op.disp] if self.imm_generalized else op.disp
                if base is not None and not isinstance(base, Reg):
                    raise RuleError("memory base must instantiate to a register")
                if index is not None and not isinstance(index, Reg):
                    raise RuleError("memory index must instantiate to a register")
                return Mem(base=base, index=index, disp=disp, scale=op.scale)
            if isinstance(op, Label):
                if not window_labels:
                    raise RuleError("rule has a label but the window does not")
                return Label(label_map(window_labels[0]))
            raise RuleError(f"cannot instantiate operand {op!r}")

        return tuple(
            Instruction(insn.mnemonic, tuple(host_operand(op) for op in insn.operands))
            for insn in self.host
        )

    def with_origin(self, origin: str, **changes) -> "TranslationRule":
        return replace(self, origin=origin, **changes)
