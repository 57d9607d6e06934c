"""Elaboration: hierarchical AST → flat bit-level :class:`Netlist`.

Elaboration allocates one *temporary* net id per declared bit in every
instance scope, in the order a walk of the instance tree meets them,
and records as *union pairs* the nets that Verilog declares equal —
port connections and continuous ``assign`` aliases.  Once the whole
tree is stamped, the pairs are resolved to net groups
(:func:`component_min`: every id takes the smallest id of its group, so
constants win theirs), the groups are compacted to dense ids, and
:meth:`Netlist.adopt_columns` enforces the single-driver rules.

This two-phase approach (allocate + pair, then compact) keeps the
stamping simple: a scope never needs to know whether its local wire
will eventually be identified with a parent net three levels up, and a
port bound to a constant or to another port of its own instance is just
one more pair.

A synthesized design is a few definitions instantiated many times, so
everything that depends only on the *definition* — declarations,
expression resolution, every width / undeclared-net / connection check
— is done once, into a :class:`_ModulePlan` of instance-relative net
*slots*.  Each definition is then compiled once into a
:class:`_Template`: one instance with its whole subtree as
instance-relative arrays (gates, pins, union pairs, name runs,
hierarchy nodes), built from the plan and its children's templates.
Each run of consecutive children of one definition is stamped into the
parent's template as **one block** (:meth:`_Elaborator._stamp`: one
offset-add per array for all its instances); the top's template is the
circuit.  No per-gate or per-net Python object exists at any point.
Temp ids are allocated exactly where a per-instance walk would allocate
them, and final net ids are first-appearance order over temp ids, so
the numbering does not depend on how the instances are blocked.

The stamper has two readers of the top module: :func:`elaborate` plans
it from the parsed text, with its slots in declaration order (ports
first, as Verilog declares them), and
:func:`repro.circuits.stream.lower_module` reads a generator's recorded
top, with its slots in declaration call order.

Names are the hierarchy (:mod:`repro.verilog.netlist`): a plan's local
names enter the name table once, an instance adds the runs indexing
them, and no name string is built per gate or per net.
"""

from __future__ import annotations

from itertools import chain

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


def _lengths(names: list[str]) -> np.ndarray:
    return np.fromiter(map(len, names), dtype=np.int32, count=len(names))


class _ChildPlan:
    """One child instance of a :class:`_ModulePlan`.

    ``first_late`` / ``num_late`` locate the slots of the implicit wires
    first seen in this child's connection list; ``bindings`` pairs each
    connected port with its parent slots, ``ports`` are those ports and
    ``bind_slots`` the slots' concatenation.  ``port_slots`` — the
    child's own slots in the same order — is filled in when the first
    instance passes the port-name and width checks, which depend on the
    two definitions only.
    """

    __slots__ = ("name", "definition", "first_late", "num_late",
                 "bindings", "ports", "bind_slots", "port_slots")

    def __init__(
        self,
        name: str,
        definition: ast.Module,
        first_late: int,
        num_late: int,
        bindings: tuple[tuple[str, list[int]], ...],
    ) -> None:
        self.name = name
        self.definition = definition
        self.first_late = first_late
        self.num_late = num_late
        self.bindings = bindings
        self.ports = tuple(pname for pname, _ in bindings)
        self.bind_slots = _slots(chain.from_iterable(
            slots for _, slots in bindings))
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
    walk's.  ``template`` is the compiled :class:`_Template`.
    """

    __slots__ = ("name", "names", "name_base", "gate_base", "num_local",
                 "port_slots", "union_a", "union_b", "gate_code",
                 "pin_count", "pin_slots", "out_slots", "children",
                 "template")

    def __init__(self, name: str) -> None:
        self.name = name
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
        self.pin_count = np.zeros(0, dtype=np.int32)
        self.pin_slots = self.out_slots = _slots(())
        self.children: list[_ChildPlan] = []
        self.template: _Template | None = None


class _Template:
    """One instance of a definition, its whole subtree included, as
    instance-relative arrays: what :meth:`_Elaborator._stamp` copies
    once per instance of a block.

    Temps are coded as for an instance whose first temp is id 3: codes
    0..2 are the constant nets and code ``c >= 3`` is the instance's
    temp ``c - 3`` — so the top's codes are final temp ids, and a plan's
    local slots are their own codes.  Gates and hierarchy nodes count
    from the instance's first gate and from its own node, 0.
    ``temp_runs`` / ``gate_runs`` name temps and gates in those
    coordinates, and ``temp_len`` is each temp's name length below the
    root (its full length, in the top); per node, ``node_name`` (the root's is set where it is
    stamped), ``node_module`` and ``node_parent`` (-1 for the root)
    rebuild the instance tree.  ``kids`` are the children's templates
    in plan order, ``height`` the nesting depth below the root.

    The array fields are lists of chunks while the template is built
    and arrays once :meth:`freeze` has run.
    """

    __slots__ = ("name", "kids", "height", "num_temps", "num_gates",
                 "node_name", "node_module", "node_parent", "gate_code",
                 "pin_count", "pin_temp", "out_temp", "union_a", "union_b",
                 "temp_runs", "temp_len", "gate_runs")

    _ARRAYS = ("node_parent", "gate_code", "pin_count", "pin_temp",
               "out_temp", "union_a", "union_b", "temp_runs", "temp_len",
               "gate_runs")

    def __init__(self, plan: _ModulePlan, kids: list[_Template]) -> None:
        self.name = plan.name
        self.kids = kids
        self.height = 1 + max((kid.height for kid in kids), default=-1)
        self.num_temps = plan.num_local
        self.num_gates = len(plan.gate_code)
        self.node_name = [plan.name]
        self.node_module = [plan.name]
        self.node_parent = [np.array([-1], dtype=np.int64)]
        # the plan's own gates and aliases: its slots are their codes
        self.gate_code = [plan.gate_code]
        self.pin_count = [plan.pin_count]
        self.pin_temp = [plan.pin_slots]
        self.out_temp = [plan.out_slots]
        self.union_a = [plan.union_a]
        self.union_b = [plan.union_b]
        self.temp_runs = [np.array([[_NUM_CONST_NETS, 0, plan.name_base]])
                          ] if plan.num_local else []
        self.temp_len = [_lengths(plan.names[:plan.num_local])]
        self.gate_runs = [np.array([[0, 0, plan.gate_base]])
                          ] if self.num_gates else []

    def late(self, names: list[str], first_name: int) -> int:
        """Allocate one temp per name, the names from table index
        ``first_name`` on; returns the first one's code."""
        code = _NUM_CONST_NETS + self.num_temps
        self.temp_runs.append(np.array([[code, 0, first_name]]))
        self.temp_len.append(_lengths(names))
        self.num_temps += len(names)
        return code

    def freeze(self) -> None:
        # every 1-D field starts with the plan's chunk; runs may not
        for field in self._ARRAYS:
            chunks = getattr(self, field)
            setattr(self, field, np.concatenate(chunks) if chunks
                    else np.zeros((0, 3), dtype=np.int64))


class _Elaborator:
    """The one stamper: plans definitions, compiles their templates,
    stamps blocks, and compacts the top into a :class:`Netlist`."""

    _MAX_DEPTH = 200

    def __init__(self, source: ast.Source) -> None:
        self.source = source
        self.plans: dict[str, _ModulePlan] = {}
        #: every plan's slot names and gate names, after the constants'
        self.names: list[str] = list(CONST_NAMES)
        self.gate_types: dict[str, int] = {}
        # work counters, printed by tools/profile_frontend.py:
        # len(plans) and exprs_resolved grow per definition,
        # blocks_stamped / largest_block per block; instances_stamped
        # (hierarchy nodes, the top included), num_temp and the rest
        # are set by _compact
        self.exprs_resolved = 0
        self.blocks_stamped = 0
        self.largest_block = 0
        self.instances_stamped = 0
        self.num_temp = _NUM_CONST_NETS
        self.union_pairs = 0
        self.propagation_rounds = 0
        self.name_ties = 0

    def run(self, top: str) -> Netlist:
        """Elaborate the parsed module ``top``."""
        module = self.source.modules[top]
        plan = self._plan_of(module, "")
        template = self._template(plan, "", depth=0)
        top_inputs: list[int] = []
        top_outputs: list[int] = []
        for pname in module.port_order:
            decl = module.port_decls.get(pname)
            if decl is None:
                raise ElaborationError(
                    f"top module port {pname!r} has no direction declaration"
                )
            if decl.direction == "input":
                top_inputs.extend(plan.port_slots[pname])
            elif decl.direction == "output":
                top_outputs.extend(plan.port_slots[pname])
            else:
                raise ElaborationError(
                    f"top-level inout port {pname!r} is not supported"
                )
        return self._compact(template, top_inputs, top_outputs)

    def run_plan(self, plan: _ModulePlan, gate_names: list[str],
                 inputs: list[int], outputs: list[int]) -> Netlist:
        """Stamp a top ``plan`` read by another front end; its gates
        are named ``gate_names``, its primary I/O are slots."""
        self._enter(plan, gate_names)
        return self._compact(self._template(plan, "", depth=0),
                             inputs, outputs)

    def code(self, gtype: str) -> int:
        """The gate type code, in first-appearance order."""
        return self.gate_types.setdefault(gtype, len(self.gate_types))

    def _enter(self, plan: _ModulePlan, gate_names: list[str]) -> None:
        """Add the plan's slot names, then its gate names, to the table."""
        plan.name_base = len(self.names)
        self.names.extend(plan.names)
        plan.gate_base = len(self.names)
        self.names.extend(gate_names)

    # -- per definition: compile the template, stamping children ----------

    def _template(self, plan: _ModulePlan, prefix: str,
                  depth: int) -> _Template:
        """``plan``'s template, compiled on its first instance (at
        ``prefix``, ``depth``): its own gates and aliases, then each run
        of consecutive children of one definition, bound alike, stamped
        as one block.  A child whose late names must be allocated
        first starts a block."""
        if plan.template is not None:
            return plan.template
        kids: list[_Template] = []
        for sub in plan.children:  # checks in the order a walk meets them
            kids.append(self._child(sub, prefix, depth))
        t = _Template(plan, kids)
        slot_code = np.arange(_NUM_CONST_NETS + len(plan.names))
        i = 0
        while i < len(kids):
            sub, j = plan.children[i], i + 1
            while j < len(kids) and kids[j] is kids[i] \
                    and not plan.children[j].num_late \
                    and plan.children[j].ports == sub.ports:
                j += 1
            if sub.num_late:
                first, end = sub.first_late, sub.first_late + sub.num_late
                slot_code[first:end] = t.late(
                    plan.names[first - _NUM_CONST_NETS:end - _NUM_CONST_NETS],
                    plan.name_base + first - _NUM_CONST_NETS,
                ) + np.arange(sub.num_late)
            block = plan.children[i:j]
            self._stamp(t, kids[i], [c.name for c in block], sub.port_slots,
                        slot_code[np.concatenate([c.bind_slots for c in block])])
            i = j
        t.freeze()
        plan.template = t
        return t

    def _child(self, sub: _ChildPlan, prefix: str, depth: int) -> _Template:
        """Check one child instance and compile its definition."""
        module = sub.definition
        path = f"{prefix}.{sub.name}" if prefix else sub.name
        if depth >= self._MAX_DEPTH:
            raise self._nesting_error(module.name)
        if sub.port_slots is None:
            for pname, parent_slots in sub.bindings:
                if pname not in module.port_decls:
                    raise ElaborationError(
                        f"module {module.name!r} has no port {pname!r} "
                        f"(instance {path})"
                    )
                width = module.width_of(pname)
                if len(parent_slots) != width:
                    raise ElaborationError(
                        f"width mismatch on port {pname!r} of {path}: "
                        f"connected {len(parent_slots)} bits to {width}-bit port"
                    )
            plan = self._plan_of(module, path)
            sub.port_slots = _slots(chain.from_iterable(
                plan.port_slots[pname] for pname in sub.ports))
        kid = self._template(self.plans[module.name], path, depth + 1)
        if depth + 1 + kid.height > self._MAX_DEPTH:
            # compiled under a shallower instance: name the definition
            # the walk down this one meets first past the limit
            t, level = kid, depth + 1
            while level <= self._MAX_DEPTH:
                t = next(k for k in t.kids
                         if level + 1 + k.height > self._MAX_DEPTH)
                level += 1
            raise self._nesting_error(t.name)
        return kid

    def _nesting_error(self, name: str) -> ElaborationError:
        return ElaborationError(
            f"instance nesting deeper than {self._MAX_DEPTH} "
            f"(recursive instantiation of {name!r}?)"
        )

    def _stamp(self, t: _Template, kid: _Template, names: list[str],
               port_slots: np.ndarray, bound: np.ndarray) -> None:
        """Append one block of ``len(names)`` instances of ``kid`` to
        ``t``: instance ``i``'s temps, gates and nodes follow instance
        ``i - 1``'s, and its ``port_slots`` pair with its row of
        ``bound``, the parent temps its connections name (the rows back
        to back)."""
        n = len(names)
        inst = np.arange(n, dtype=np.int64)[:, None]
        shift = t.num_temps + inst * kid.num_temps
        node = len(t.node_name) + inst * len(kid.node_name)

        def temps(codes: np.ndarray) -> np.ndarray:
            return np.where(codes >= _NUM_CONST_NETS, codes + shift,
                            codes).reshape(-1)

        def runs(rows: np.ndarray, first: np.ndarray) -> np.ndarray:
            step = np.zeros((n, 1, 3), dtype=np.int64)
            step[:, :, 0] = first
            step[:, :, 1] = node
            return (rows + step).reshape(-1, 3)

        t.gate_code.append(np.tile(kid.gate_code, n))
        t.pin_count.append(np.tile(kid.pin_count, n))
        t.pin_temp.append(temps(kid.pin_temp))
        t.out_temp.append(temps(kid.out_temp))
        t.union_a += [temps(kid.union_a), (port_slots + shift).reshape(-1)]
        t.union_b += [temps(kid.union_b), bound]
        t.temp_runs.append(runs(kid.temp_runs, shift))
        t.temp_len.append((kid.temp_len + _lengths(names)[:, None] + 1
                           ).reshape(-1))
        t.gate_runs.append(
            runs(kid.gate_runs, t.num_gates + inst * kid.num_gates))
        parent = kid.node_parent + node
        parent[:, 0] = 0
        t.node_parent.append(parent.reshape(-1))
        for name in names:
            t.node_name.append(name)
            t.node_name += kid.node_name[1:]
        t.node_module += kid.node_module * n
        t.num_temps += n * kid.num_temps
        t.num_gates += n * kid.num_gates
        self.blocks_stamped += 1
        self.largest_block = max(self.largest_block, n)

    # -- per definition: resolve the module body to slots -------------------

    def _plan_of(self, module: ast.Module, prefix: str) -> _ModulePlan:
        plan = self.plans.get(module.name)
        if plan is None:
            plan = self.plans[module.name] = self._plan(module, prefix)
        return plan

    def _plan(self, module: ast.Module, prefix: str) -> _ModulePlan:
        """Build ``module``'s plan; every definition-level check runs here.

        ``prefix`` is the path of the instance that triggered planning
        (the definition's first); it only words the error messages.
        """
        plan = _ModulePlan(module.name)
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
            codes.append(self.code(gate.gtype))
            out_slots.append(terms[0][0])
            pin_count.append(len(terms) - 1)
            pin_slots.extend(t[0] for t in terms[1:])
        plan.gate_code = np.array(codes, dtype=np.int16)
        plan.pin_count = np.array(pin_count, dtype=np.int32)
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
                    inst.instance_name, child_def, _NUM_CONST_NETS + n_before,
                    len(names) - n_before, tuple(child_bindings.items()),
                )
            )
        self._enter(plan, gate_names)
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

    def _compact(self, t: _Template, top_inputs: list[int],
                 top_outputs: list[int]) -> Netlist:
        """Build the instance tree, canonicalize the top's net groups and
        hand the final dense columns over.  The top's codes are temp
        ids (``top_*`` are its slots, so codes too); its template is
        consumed: the temp columns become the net columns in place."""
        netlist = Netlist(t.name)
        nodes = [netlist.hierarchy]
        for name, module, parent in zip(t.node_name[1:], t.node_module[1:],
                                        t.node_parent[1:].tolist()):
            up = nodes[parent]
            node = up.children[name] = HierNode(
                name=name, module=module, path=up.path + (name,))
            nodes.append(node)
        self.instances_stamped = len(nodes)
        prefixes = [".".join(n.path) + "." if n.path else "" for n in nodes]
        runs = np.concatenate((np.zeros((1, 3), dtype=np.int64), t.temp_runs))

        def temp_names(temps: np.ndarray) -> list[str]:
            return run_names(runs, temps, prefixes, self.names)

        final_of, net_temp = self._nets(t, temp_names)
        top_inputs = _slots(top_inputs)
        inputs = final_of[top_inputs].tolist()
        outputs = final_of[_slots(top_outputs)]
        gate_output = np.take(final_of, t.out_temp, out=t.out_temp)
        pin_net = np.take(final_of, t.pin_temp, out=t.pin_temp)
        del final_of
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
        pin_ptr = np.zeros(t.num_gates + 1, dtype=np.int64)
        np.cumsum(t.pin_count, out=pin_ptr[1:])
        netlist.adopt_columns(
            self.names, t.gate_runs, runs, net_temp, tuple(self.gate_types),
            t.gate_code, gate_output, pin_ptr, pin_net, inputs, outputs,
        )
        return netlist

    def _nets(self, t: _Template,
              temp_names) -> tuple[np.ndarray, np.ndarray]:
        """Per temp its final net id, and per net the temp naming it."""
        num_temp = self.num_temp = _NUM_CONST_NETS + t.num_temps
        self.union_pairs = len(t.union_a)
        # only a temp in a pair can share its net with another
        paired = np.zeros(num_temp, dtype=bool)
        paired[t.union_a] = paired[t.union_b] = True
        roots, self.propagation_rounds = component_min(
            num_temp, t.union_a, t.union_b)
        if (roots[:_NUM_CONST_NETS] != _CONST_IDS).any():
            raise ElaborationError("constant nets were merged together")
        # a root is its group's smallest temp id, so ascending roots are
        # the groups in first-appearance order: the final numbering
        is_root = roots == np.arange(num_temp)
        final_of = np.cumsum(is_root)
        final_of -= 1
        final_of = final_of[roots]
        del roots
        # a net is named by one of its temps: the shortest name, then
        # the lexically smallest, then the first; constants and nets of
        # one temp keep their root's
        net_temp = np.flatnonzero(is_root)
        temps = np.flatnonzero(paired & (final_of >= _NUM_CONST_NETS))
        del paired, is_root
        named = final_of[temps]
        best, self.name_ties = pick_names(
            len(net_temp), named, temps,
            t.temp_len[temps - _NUM_CONST_NETS], temp_names,
        )
        net_temp[named] = best[named]
        return final_of, net_temp


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
