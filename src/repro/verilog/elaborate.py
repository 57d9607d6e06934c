"""Elaboration: hierarchical AST → flat bit-level :class:`Netlist`.

Elaboration walks the instance tree of the top module, allocating one
*temporary* net id per declared bit in every scope and recording as
*union pairs* the nets that Verilog declares equal — port connections
and continuous ``assign`` aliases.  Once the whole tree is walked, the
pairs are resolved to net groups (:func:`component_min`: every id takes
the smallest id of its group, so constants win theirs), the groups are
compacted to dense ids, and :meth:`Netlist.adopt_columns` enforces the
single-driver rules.

This two-phase approach (allocate + pair, then compact) keeps the
recursive walk simple: a scope never needs to know whether its local
wire will eventually be identified with a parent net three levels up.

A synthesized design is a few definitions instantiated many times, so
everything that depends only on the *definition* — declarations,
expression resolution, every width / undeclared-net / connection check
— is done once, into a :class:`_ModulePlan` of instance-relative net
*slots*, on the definition's first instantiation.  The plan keeps its
gates, unions and child bindings as integer arrays over those slots, so
an instance is stamped as **columns, not objects**: it fills one
slot → temp-id array and appends a handful of gathers through it (pin
nets, output nets, union pairs) as chunks.  No per-gate or per-net
Python object exists at any point; the chunks are concatenated once and
handed to :meth:`Netlist.adopt_columns`.  Temp ids are allocated
exactly where a per-instance walk of the body would allocate them, and
final net ids are first-appearance order over temp ids, so the
numbering of the output does not depend on how it is stamped.

Names are the hierarchy (:mod:`repro.verilog.netlist`): a plan's local
names enter the name table once, an instance adds the runs indexing
them, and no name string is built per gate or per net.
"""

from __future__ import annotations

import numpy as np

from ..errors import ElaborationError, NetlistError
from . import ast
from .netlist import (
    CONST0,
    CONST1,
    CONST_NAMES,
    CONSTX,
    _NUM_CONST_NETS,
    HierNode,
    Netlist,
    name_runs,
    pick_names,
    run_lengths,
    run_names,
)
from .primitives import gate_spec, is_gate_type

__all__ = ["elaborate", "find_top_module", "NetlistBuilder"]


def component_min(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Smallest member of every id's group, for ids ``0 .. n - 1`` grouped
    by the undirected pairs ``(a[i], b[i])``; also the rounds taken.

    Label propagation with hooking and pointer jumping: ``label[x] <= x``
    always points at a smaller member of ``x``'s group.  A round hooks,
    for every pair whose ends sit under different roots, the larger root
    onto the smaller, then jumps every pointer to its root; it ends when
    every pair agrees.  A pointer chain only ever descends, so the root
    a group settles on is its smallest id.
    """
    label = np.arange(n, dtype=np.int64)
    rounds = 0
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label, rounds
        rounds += 1
        la, lb = la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def find_top_module(source: ast.Source) -> str:
    """Infer the top module: the unique module never instantiated.

    Raises :class:`ElaborationError` if zero or several candidates
    exist (the caller should then name the top explicitly).
    """
    instantiated: set[str] = set()
    for module in source.modules.values():
        for inst in module.instances:
            instantiated.add(inst.module_name)
    candidates = [name for name in source.modules if name not in instantiated]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise ElaborationError("no top-level module (instantiation cycle?)")
    raise ElaborationError(
        f"ambiguous top module, candidates: {', '.join(sorted(candidates))}"
    )


def elaborate(source: ast.Source, top: str | None = None) -> Netlist:
    """Elaborate ``source`` into a flat :class:`Netlist`.

    Parameters
    ----------
    source:
        Parsed module definitions.
    top:
        Name of the top module; inferred with :func:`find_top_module`
        when omitted.
    """
    if top is None:
        top = find_top_module(source)
    if top not in source.modules:
        raise ElaborationError(f"top module {top!r} not defined")
    return _Elaborator(source).run(top)


_CONST_IDS = (CONST0, CONST1, CONSTX)


def _slots(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.intp)


def _concat(chunks: list[np.ndarray], dtype=np.int64) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


class _ChildPlan:
    """One child instance of a :class:`_ModulePlan`.

    ``first_late`` / ``num_late`` locate the slots of the implicit wires
    first seen in this child's connection list; ``bindings`` pairs each
    connected port with its parent slots and ``bind_slots`` is their
    concatenation.  ``port_slots`` — the child's own slots in the same
    order — is filled in when the first instance passes the port-name
    and width checks, which depend on the two definitions only.
    """

    __slots__ = ("inst", "definition", "first_late", "num_late",
                 "bindings", "bind_slots", "port_slots")

    def __init__(
        self,
        inst: ast.ModuleInst,
        definition: ast.Module,
        first_late: int,
        num_late: int,
        bindings: tuple[tuple[str, list[int]], ...],
    ) -> None:
        self.inst = inst
        self.definition = definition
        self.first_late = first_late
        self.num_late = num_late
        self.bindings = bindings
        self.bind_slots = _slots(s for _, slots in bindings for s in slots)
        self.port_slots: np.ndarray | None = None


class _ModulePlan:
    """What every instance of one module *definition* shares, as arrays.

    Nets are instance-relative *slots*.  Slots 0..2 are the constant
    nets, so literals, supplies and unconnected inputs are ordinary
    slots.  ``names`` names slots 3 onward: first the ``num_local``
    declared port and net bits and the implicit wires first seen in an
    ``assign`` or a gate terminal.  An implicit wire first seen in child
    ``i``'s connection list is a *late* name of that child; late names
    take the following slots in child order, and an instance allocates
    them just before it enters child ``i`` — which is where a
    per-instance walk would have met them, so temp-id order is that
    walk's.
    """

    __slots__ = ("names", "name_base", "gate_base", "num_local",
                 "port_slots", "union_a", "union_b", "gate_code",
                 "pin_count", "pin_slots", "out_slots", "children")

    def __init__(self) -> None:
        #: name suffix (``w`` / ``v[3]``) of slot ``3 + i``
        self.names: list[str] = []
        #: where ``names``, then the gate names, start in the
        #: elaborator's name table
        self.name_base = self.gate_base = 0
        self.num_local = 0
        self.port_slots: dict[str, list[int]] = {}
        #: slot pairs aliased by ``assign`` and ``supply0/1``
        self.union_a = self.union_b = _slots(())
        #: per gate: type code, input count, output slot; the input
        #: slots of all gates back to back
        self.gate_code = np.zeros(0, dtype=np.int16)
        self.pin_count = self.pin_slots = self.out_slots = _slots(())
        self.children: list[_ChildPlan] = []


class _Elaborator:
    _MAX_DEPTH = 200

    def __init__(self, source: ast.Source) -> None:
        self.source = source
        self.plans: dict[str, _ModulePlan] = {}
        #: every plan's slot names and gate names, after the constants'
        self.names: list[str] = list(CONST_NAMES)
        self.gate_types: dict[str, int] = {}
        # per instance (= hierarchy node, in walk order): dotted prefix
        self.prefixes: list[str] = []
        # temp nets: allocated count and the runs that name them,
        # (first temp id, instance, first name-table index)
        self.num_temp = _NUM_CONST_NETS
        self.temp_runs: list[tuple[int, int, int]] = [(0, 0, 0)]
        # chunks, one entry per stamped instance that has any
        self.union_a: list[np.ndarray] = []
        self.union_b: list[np.ndarray] = []
        self.gate_code: list[np.ndarray] = []
        self.pin_count: list[np.ndarray] = []
        self.pin_temp: list[np.ndarray] = []
        self.out_temp: list[np.ndarray] = []
        # (first gate, instance, first name-table index) per gate run
        self.num_gates = 0
        self.gate_runs: list[tuple[int, int, int]] = []
        # work counters, printed by tools/profile_frontend.py:
        # instances_stamped grows per instance, len(plans) and
        # exprs_resolved per definition; the rest are set by _compact
        self.instances_stamped = 0
        self.exprs_resolved = 0
        self.union_pairs = 0
        self.propagation_rounds = 0
        self.name_ties = 0

    def run(self, top: str) -> Netlist:
        netlist = Netlist(top)
        module = self.source.modules[top]
        ids = self._instantiate(module, (), netlist.hierarchy, None, None,
                                depth=0)
        port_slots = self.plans[top].port_slots
        top_inputs: list[int] = []
        top_outputs: list[int] = []
        for pname in module.port_order:
            decl = module.port_decls.get(pname)
            if decl is None:
                raise ElaborationError(
                    f"top module port {pname!r} has no direction declaration"
                )
            if decl.direction == "input":
                top_inputs.extend(port_slots[pname])
            elif decl.direction == "output":
                top_outputs.extend(port_slots[pname])
            else:
                raise ElaborationError(
                    f"top-level inout port {pname!r} is not supported"
                )
        return self._compact(
            netlist, ids[_slots(top_inputs)], ids[_slots(top_outputs)]
        )

    # -- per instance: stamp the definition's plan --------------------------

    def _instantiate(
        self,
        module: ast.Module,
        path: tuple[str, ...],
        hier: HierNode,
        child: _ChildPlan | None,
        bound: np.ndarray | None,
        depth: int,
    ) -> np.ndarray:
        """Elaborate one module instance; returns its slot → temp id array.

        ``child`` is the parent plan's entry for this instance and
        ``bound`` the parent temp ids behind ``child.bind_slots`` (both
        None for the top module, whose ports become primary I/O).
        """
        if depth > self._MAX_DEPTH:
            raise ElaborationError(
                f"instance nesting deeper than {self._MAX_DEPTH} "
                f"(recursive instantiation of {module.name!r}?)"
            )
        prefix = ".".join(path)
        unchecked = child is not None and child.port_slots is None
        if unchecked:
            for pname, parent_slots in child.bindings:
                if pname not in module.port_decls:
                    raise ElaborationError(
                        f"module {module.name!r} has no port {pname!r} "
                        f"(instance {prefix or module.name})"
                    )
                width = module.width_of(pname)
                if len(parent_slots) != width:
                    raise ElaborationError(
                        f"width mismatch on port {pname!r} of {prefix or module.name}: "
                        f"connected {len(parent_slots)} bits to {width}-bit port"
                    )
        plan = self.plans.get(module.name)
        if plan is None:
            plan = self.plans[module.name] = self._plan(module, prefix)
        if unchecked:
            child.port_slots = _slots(
                s for pname, _ in child.bindings for s in plan.port_slots[pname]
            )
        inst = self.instances_stamped  # also hier's index in walk order
        self.instances_stamped += 1
        self.prefixes.append(prefix + "." if prefix else "")

        ids = np.empty(_NUM_CONST_NETS + len(plan.names), dtype=np.int64)
        ids[:_NUM_CONST_NETS] = _CONST_IDS
        ids[_NUM_CONST_NETS:_NUM_CONST_NETS + plan.num_local] = \
            self._allocate(inst, plan.name_base, plan.num_local)

        if child is not None and len(bound):
            self.union_a.append(ids[child.port_slots])
            self.union_b.append(bound)
        if len(plan.union_a):
            self.union_a.append(ids[plan.union_a])
            self.union_b.append(ids[plan.union_b])
        if len(plan.gate_code):
            self.gate_runs.append((self.num_gates, inst, plan.gate_base))
            self.num_gates += len(plan.gate_code)
            self.gate_code.append(plan.gate_code)
            self.pin_count.append(plan.pin_count)
            self.pin_temp.append(ids[plan.pin_slots])
            self.out_temp.append(ids[plan.out_slots])

        for sub in plan.children:
            if sub.num_late:
                ids[sub.first_late:sub.first_late + sub.num_late] = self._allocate(
                    inst,
                    plan.name_base + sub.first_late - _NUM_CONST_NETS,
                    sub.num_late,
                )
            name = sub.inst.instance_name
            child_path = path + (name,)
            child_node = HierNode(
                name=name, module=sub.inst.module_name, path=child_path
            )
            hier.children[name] = child_node
            self._instantiate(
                sub.definition, child_path, child_node, sub,
                ids[sub.bind_slots], depth + 1,
            )
        return ids

    def _allocate(self, inst: int, first_name: int, count: int) -> np.ndarray:
        """``count`` fresh temp ids for instance ``inst``, named by the
        name table from ``first_name`` on."""
        base = self.num_temp
        self.num_temp = base + count
        if count:
            self.temp_runs.append((base, inst, first_name))
        return np.arange(base, base + count, dtype=np.int64)

    # -- per definition: resolve the module body to slots -------------------

    def _plan(self, module: ast.Module, prefix: str) -> _ModulePlan:
        """Build ``module``'s plan; every definition-level check runs here.

        ``prefix`` is the path of the instance that triggered planning
        (the definition's first); it only words the error messages.
        """
        plan = _ModulePlan()
        # names of slots 3.. in allocation order: locals, then late names
        names = plan.names
        scope: dict[str, list[int]] = {}
        unions: list[tuple[int, int]] = []

        def declare(name: str, rng: ast.Range | None) -> list[int]:
            first = _NUM_CONST_NETS + len(names)
            if rng is None or rng.width == 1:
                names.append(name)
            else:
                names.extend(f"{name}[{idx}]" for idx in rng.bit_indices())
            bits = list(range(first, _NUM_CONST_NETS + len(names)))
            scope[name] = bits
            return bits

        for pname, pdecl in module.port_decls.items():
            plan.port_slots[pname] = declare(pname, pdecl.range)
        for nname, ndecl in module.net_decls.items():
            if nname in scope:
                continue  # `wire` redeclaration of a port
            bits = declare(nname, ndecl.range)
            if ndecl.kind == "supply0":
                unions.extend((b, CONST0) for b in bits)
            elif ndecl.kind == "supply1":
                unions.extend((b, CONST1) for b in bits)

        # continuous assigns are aliases
        for assign in module.assigns:
            lhs = self._resolve(assign.lhs, scope, names, module, prefix, assign.line)
            rhs = self._resolve(assign.rhs, scope, names, module, prefix, assign.line)
            if len(lhs) != len(rhs):
                raise ElaborationError(
                    f"assign width mismatch in {module.name} line {assign.line}: "
                    f"{len(lhs)} vs {len(rhs)} bits"
                )
            unions.extend(zip(lhs, rhs))
        plan.union_a = _slots(a for a, _ in unions)
        plan.union_b = _slots(b for _, b in unions)

        # primitive gates
        unnamed = 0
        gate_names: list[str] = []
        codes: list[int] = []
        pin_count: list[int] = []
        pin_slots: list[int] = []
        out_slots: list[int] = []
        for gate in module.gates:
            if gate.name is None:
                gname = f"_g{unnamed}"
                unnamed += 1
            else:
                gname = gate.name
            terms = [
                self._resolve(t, scope, names, module, prefix, gate.line)
                for t in gate.terminals
            ]
            for i, bits in enumerate(terms):
                if len(bits) != 1:
                    hier_name = f"{prefix}.{gname}" if prefix else gname
                    raise ElaborationError(
                        f"terminal {i} of gate {hier_name!r} is "
                        f"{len(bits)} bits wide; gate pins are scalar"
                    )
            gate_names.append(gname)
            codes.append(
                self.gate_types.setdefault(gate.gtype, len(self.gate_types))
            )
            out_slots.append(terms[0][0])
            pin_count.append(len(terms) - 1)
            pin_slots.extend(t[0] for t in terms[1:])
        plan.gate_code = np.array(codes, dtype=np.int16)
        plan.pin_count = _slots(pin_count)
        plan.pin_slots = _slots(pin_slots)
        plan.out_slots = _slots(out_slots)
        plan.num_local = len(names)

        # child instances
        instance_names: set[str] = set()
        for inst in module.instances:
            if is_gate_type(inst.module_name):
                raise ElaborationError(
                    f"{inst.module_name!r} shadows a primitive name"
                )
            child_def = self.source.modules.get(inst.module_name)
            if child_def is None:
                raise ElaborationError(
                    f"module {inst.module_name!r} (instance "
                    f"{prefix + '.' if prefix else ''}{inst.instance_name}) is not defined"
                )
            n_before = len(names)
            child_bindings = self._connection_bindings(
                inst, child_def, scope, names, module, prefix
            )
            if inst.instance_name in instance_names:
                raise ElaborationError(
                    f"duplicate instance name {inst.instance_name!r} in "
                    f"{prefix or module.name}"
                )
            instance_names.add(inst.instance_name)
            plan.children.append(
                _ChildPlan(
                    inst, child_def, _NUM_CONST_NETS + n_before,
                    len(names) - n_before, tuple(child_bindings.items()),
                )
            )
        plan.name_base = len(self.names)
        self.names.extend(names)
        plan.gate_base = len(self.names)
        self.names.extend(gate_names)
        return plan

    def _connection_bindings(
        self,
        inst: ast.ModuleInst,
        child: ast.Module,
        scope: dict[str, list[int]],
        names: list[str],
        module: ast.Module,
        prefix: str,
    ) -> dict[str, list[int]]:
        """Resolve an instance's connections to port-name → parent-slot map."""
        bindings: dict[str, list[int]] = {}

        def bind(pname: str, expr: ast.Expr) -> None:
            if isinstance(expr, ast.Unconnected):
                pdecl = child.port_decls.get(pname)
                if pdecl is not None and pdecl.direction == "input":
                    width = child.width_of(pname)
                    bindings[pname] = [CONSTX] * width
                # unconnected outputs simply stay local to the child
                return
            bindings[pname] = self._resolve(
                expr, scope, names, module, prefix, inst.line
            )

        if inst.named is not None:
            seen: set[str] = set()
            for pname, expr in inst.named:
                if pname in seen:
                    raise ElaborationError(
                        f"port {pname!r} connected twice on instance "
                        f"{inst.instance_name!r}"
                    )
                seen.add(pname)
                bind(pname, expr)
        else:
            positional = inst.positional or ()
            if len(positional) > len(child.port_order):
                raise ElaborationError(
                    f"instance {inst.instance_name!r} of {child.name!r} has "
                    f"{len(positional)} connections for {len(child.port_order)} ports"
                )
            for pname, expr in zip(child.port_order, positional):
                bind(pname, expr)
        return bindings

    def _resolve(
        self,
        expr: ast.Expr,
        scope: dict[str, list[int]],
        names: list[str],
        module: ast.Module,
        prefix: str,
        line: int,
    ) -> list[int]:
        """Expression → list of slots, LSB first.

        An undeclared scalar identifier takes the next slot and appends
        its name to ``names``.
        """
        self.exprs_resolved += 1
        where = f"{module.name}{' (' + prefix + ')' if prefix else ''} line {line}"
        if isinstance(expr, ast.Identifier):
            bits = scope.get(expr.name)
            if bits is None:
                # implicit scalar wire (legal Verilog for undeclared nets)
                bits = [_NUM_CONST_NETS + len(names)]
                names.append(expr.name)
                scope[expr.name] = bits
            return bits
        if isinstance(expr, ast.BitSelect):
            bits = scope.get(expr.name)
            if bits is None:
                raise ElaborationError(f"undeclared vector {expr.name!r} in {where}")
            rng = module.range_of(expr.name)
            if rng is None:
                raise ElaborationError(
                    f"bit-select on scalar net {expr.name!r} in {where}"
                )
            indices = rng.bit_indices()
            try:
                pos = indices.index(expr.index)
            except ValueError:
                raise ElaborationError(
                    f"index {expr.index} out of range for {expr.name!r} in {where}"
                )
            return [bits[pos]]
        if isinstance(expr, ast.PartSelect):
            bits = scope.get(expr.name)
            rng = module.range_of(expr.name)
            if bits is None or rng is None:
                raise ElaborationError(
                    f"part-select on undeclared/scalar net {expr.name!r} in {where}"
                )
            indices = rng.bit_indices()
            try:
                lo = indices.index(expr.lsb)
                hi = indices.index(expr.msb)
            except ValueError:
                raise ElaborationError(
                    f"part-select [{expr.msb}:{expr.lsb}] out of range for "
                    f"{expr.name!r} in {where}"
                )
            if lo > hi:
                raise ElaborationError(
                    f"reversed part-select [{expr.msb}:{expr.lsb}] on "
                    f"{expr.name!r} in {where}"
                )
            return bits[lo : hi + 1]
        if isinstance(expr, ast.Concat):
            out: list[int] = []
            # Verilog concatenation lists MSB first; bit order is LSB
            # first, so append items right-to-left.
            for item in reversed(expr.items):
                out.extend(self._resolve(item, scope, names, module, prefix, line))
            return out
        if isinstance(expr, ast.Literal):
            return [(CONST0, CONST1, CONSTX)[b] for b in expr.bits]
        if isinstance(expr, ast.Unconnected):
            raise ElaborationError(f"empty expression in {where}")
        raise ElaborationError(f"unsupported expression {expr!r} in {where}")

    # -- compaction ----------------------------------------------------------

    def _compact(
        self, netlist: Netlist, top_inputs: np.ndarray, top_outputs: np.ndarray
    ) -> Netlist:
        """Canonicalize net groups, hand the final dense columns over."""
        num_temp = self.num_temp
        pair_a, pair_b = _concat(self.union_a), _concat(self.union_b)
        self.union_pairs = len(pair_a)
        roots, self.propagation_rounds = component_min(num_temp, pair_a, pair_b)
        if (roots[:_NUM_CONST_NETS] != _CONST_IDS).any():
            raise ElaborationError("constant nets were merged together")
        # a root is its group's smallest temp id, so ascending roots are
        # the groups in first-appearance order: the final numbering
        is_root = roots == np.arange(num_temp)
        final_of = (np.cumsum(is_root) - 1)[roots]
        num_nets = int(is_root.sum())

        # a net is named by one of its temps: the shortest name, then
        # the lexically smallest, then the first; constants keep theirs
        runs = np.array(self.temp_runs, dtype=np.int64)

        def temp_names(temps: np.ndarray) -> list[str]:
            return run_names(runs, temps, self.prefixes, self.names)

        temps = np.flatnonzero(final_of >= _NUM_CONST_NETS)
        net_temp, self.name_ties = pick_names(
            num_nets, final_of[temps], temps,
            run_lengths(runs, temps, self.prefixes, self.names), temp_names,
        )
        net_temp[:_NUM_CONST_NETS] = _CONST_IDS

        gate_output = final_of[_concat(self.out_temp)]
        pin_ptr = np.zeros(len(gate_output) + 1, dtype=np.int64)
        np.cumsum(_concat(self.pin_count), out=pin_ptr[1:])

        inputs = final_of[top_inputs].tolist()
        if (inputs and min(inputs) < _NUM_CONST_NETS) \
                or len(set(inputs)) != len(inputs):
            first: dict[int, int] = {}
            for nid, temp in zip(inputs, top_inputs):
                if nid < _NUM_CONST_NETS:
                    raise ElaborationError(
                        "a primary input is tied to a constant net"
                    )
                if nid in first:
                    a, b = temp_names(np.array([first[nid], temp]))
                    raise ElaborationError(
                        f"primary inputs {a!r} and {b!r} are aliased to one net"
                    )
                first[nid] = temp
        netlist.adopt_columns(
            self.names,
            np.array(self.gate_runs, dtype=np.int64),
            runs,
            net_temp,
            tuple(self.gate_types),
            _concat(self.gate_code, np.int16),
            gate_output,
            pin_ptr,
            final_of[_concat(self.pin_temp)],
            inputs,
            final_of[top_outputs],
        )
        return netlist


class NetlistBuilder:
    """Programmatic netlist construction for tests and generators.

    Accumulates net names, gates, primary I/O and optional hierarchy
    grouping without going through Verilog text, then hands the whole
    circuit to :meth:`Netlist.adopt_columns` once, in :meth:`build` —
    which is where a doubly driven net or a driven constant is
    reported.  Net names are taken whole; a gate's name is local to the
    instance at its ``path``.  Example::

        nb = NetlistBuilder("toy")
        a, b = nb.input("a"), nb.input("b")
        y = nb.net("y")
        nb.gate("nand", (a, b), y)
        nb.output_net(y)
        netlist = nb.build()
    """

    def __init__(self, top: str) -> None:
        self._netlist = Netlist(top)
        self._net_names = list(CONST_NAMES)
        self._inputs: list[int] = []
        self._outputs: list[int] = []
        # per gate: local name, type name, instance path, output net,
        # input count; the input nets of all gates back to back
        self._gate_names: list[str] = []
        self._gate_types: list[str] = []
        self._paths: list[tuple[str, ...]] = []
        self._gate_output: list[int] = []
        self._pin_count: list[int] = []
        self._pins: list[int] = []
        self._unnamed = 0
        self._built = False

    def net(self, name: str | None = None) -> int:
        """Create a fresh net (auto-named ``_n<i>`` when unnamed)."""
        if name is None:
            name = f"_n{self._unnamed}"
            self._unnamed += 1
        self._net_names.append(name)
        return len(self._net_names) - 1

    def input(self, name: str) -> int:
        """Create a primary-input net."""
        nid = self.net(name)
        self._inputs.append(nid)
        return nid

    def output_net(self, nid: int) -> None:
        """Mark an existing net as a primary output."""
        self._outputs.append(nid)

    def gate(
        self,
        gtype: str,
        inputs: tuple[int, ...] | list[int],
        output: int,
        name: str | None = None,
        path: tuple[str, ...] = (),
    ) -> int:
        """Add a gate; ``path`` places it in the hierarchy tree."""
        spec = gate_spec(gtype)
        n_in = len(inputs)
        if n_in < spec.min_inputs or (
            spec.max_inputs is not None and n_in > spec.max_inputs
        ):
            raise ElaborationError(
                f"{gtype} gate with {n_in} inputs (spec: {spec.min_inputs}"
                f"..{spec.max_inputs if spec.max_inputs is not None else 'inf'})"
            )
        if name is None:
            name = f"_g{len(self._gate_names)}"
        num_nets = len(self._net_names)
        for nid in (*inputs, output):
            if not 0 <= nid < num_nets:
                raise NetlistError(
                    f"gate {'.'.join((*path, name))!r} references bad net {nid}"
                )
        self._ensure_path(path)
        self._gate_names.append(name)
        self._gate_types.append(gtype)
        self._paths.append(path)
        self._gate_output.append(output)
        self._pin_count.append(n_in)
        self._pins.extend(inputs)
        return len(self._gate_names) - 1

    def dff(self, d: int, clk: int, q: int, name: str | None = None,
            path: tuple[str, ...] = ()) -> int:
        """Shorthand for a D flip-flop cell."""
        return self.gate("dff", (d, clk), q, name=name, path=path)

    def _ensure_path(self, path: tuple[str, ...]) -> None:
        node = self._netlist.hierarchy
        for i, name in enumerate(path):
            if name not in node.children:
                node.children[name] = HierNode(
                    name=name, module=f"_m_{name}", path=path[: i + 1]
                )
            node = node.children[name]

    def build(self) -> Netlist:
        """Hand the circuit to the netlist and return it (single use)."""
        if self._built:
            raise ElaborationError("NetlistBuilder.build() called twice")
        self._built = True
        netlist = self._netlist
        node_index = {
            node.path: i for i, node in enumerate(netlist.hierarchy.walk())
        }
        type_code: dict[str, int] = {}  # first-appearance order
        codes = [type_code.setdefault(t, len(type_code))
                 for t in self._gate_types]
        pin_ptr = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(self._pin_count, out=pin_ptr[1:])
        num_nets = len(self._net_names)
        netlist.adopt_columns(
            self._net_names + self._gate_names,
            name_runs([node_index[p] for p in self._paths],
                      num_nets + np.arange(len(codes))),
            np.zeros((1, 3), dtype=np.int64),
            np.arange(num_nets),
            tuple(type_code),
            np.array(codes, dtype=np.int16),
            np.array(self._gate_output, dtype=np.int64),
            pin_ptr,
            np.array(self._pins, dtype=np.int64),
            self._inputs,
            self._outputs,
        )
        return netlist
