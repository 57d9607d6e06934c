"""Elaboration: hierarchical AST → flat bit-level :class:`Netlist`.

Elaboration walks the instance tree of the top module, allocating one
*temporary* net id per declared bit in every scope, then merging nets
that Verilog declares equal — port connections and continuous
``assign`` aliases — with a union-find.  Once the whole tree is
processed, net groups are canonicalized (constants win their groups),
compacted to dense ids, and single-driver rules are enforced while the
final :class:`~repro.verilog.netlist.Netlist` is assembled.

This two-phase approach (allocate + union, then compact) keeps the
recursive walk simple: a scope never needs to know whether its local
wire will eventually be identified with a parent net three levels up.

A synthesized design is a few definitions instantiated many times, so
everything that depends only on the *definition* — declarations,
expression resolution, every width / undeclared-net / connection check
— is done once, into a :class:`_ModulePlan` of instance-relative net
*slots*, on the definition's first instantiation.  An instance then
only allocates its block of temp ids, names them ``prefix + suffix``,
and maps the plan's unions, gates and child bindings through one
slot → temp-id list.  Temp ids are allocated exactly where a
per-instance walk of the body would allocate them, and final net ids
are first-appearance order over temp ids, so the numbering of the
output does not depend on the plan being shared.
"""

from __future__ import annotations

from ..errors import ElaborationError
from . import ast
from .netlist import CONST0, CONST1, CONSTX, _NUM_CONST_NETS, HierNode, Netlist
from .primitives import gate_spec, is_gate_type

__all__ = ["elaborate", "find_top_module", "NetlistBuilder"]


class _UnionFind:
    """Union-find over dense integer ids in which the smaller root wins.

    Hence ``parent[x] <= x`` throughout and a group's root is its
    smallest member: the constant ids (0..2) win their groups, and
    :meth:`roots` resolves every id in one ascending pass.
    """

    def __init__(self) -> None:
        self.parent: list[int] = []

    def extend(self, count: int) -> int:
        """Allocate ``count`` consecutive fresh ids; returns the first."""
        base = len(self.parent)
        self.parent.extend(range(base, base + count))
        return base

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def roots(self) -> list[int]:
        """Root of every id (fully compresses ``parent`` and returns it)."""
        parent = self.parent
        for x, p in enumerate(parent):
            if p != x:
                parent[x] = parent[p]  # p < x, so parent[p] is already a root
        return parent


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


class _ModulePlan:
    """What every instance of one module *definition* shares.

    Nets are instance-relative *slots*.  Slots 0..2 are the constant
    nets, so literals, supplies and unconnected inputs are ordinary
    slots.  ``local_names`` names slots 3 onward: the declared port and
    net bits, then the implicit wires first seen in an ``assign`` or a
    gate terminal.  An implicit wire first seen in child ``i``'s
    connection list is a *late* name of that child; late names take
    the following slots in child order, and an instance allocates them
    just before it enters child ``i`` — which is where a per-instance
    walk would have met them, so temp-id order is that walk's.
    """

    __slots__ = ("local_names", "port_slots", "unions", "gates", "children")

    def __init__(self) -> None:
        #: name suffix (``w`` / ``v[3]``) of slot ``3 + i``
        self.local_names: list[str] = []
        self.port_slots: dict[str, list[int]] = {}
        #: slot pairs aliased by ``assign`` and ``supply0/1``
        self.unions: list[tuple[int, int]] = []
        #: (gtype, gate name, input slots, output slot)
        self.gates: list[tuple[str, str, tuple[int, ...], int]] = []
        #: (instance, child definition, late names, (port, slots) bindings)
        self.children: list[
            tuple[
                ast.ModuleInst,
                ast.Module,
                list[str],
                tuple[tuple[str, list[int]], ...],
            ]
        ] = []


class _Elaborator:
    _MAX_DEPTH = 200

    def __init__(self, source: ast.Source) -> None:
        self.source = source
        self.uf = _UnionFind()
        self.net_name: list[str] = []
        # temp gates: (gtype, hier name, path, input temp ids, output temp id)
        self.gates: list[tuple[str, str, tuple[str, ...], tuple[int, ...], int]] = []
        self.top_inputs: list[int] = []
        self.top_outputs: list[int] = []
        self.plans: dict[str, _ModulePlan] = {}
        # work counters, printed by tools/profile_frontend.py:
        # instances_stamped grows per instance, len(plans) and
        # exprs_resolved per definition
        self.instances_stamped = 0
        self.exprs_resolved = 0

    def run(self, top: str) -> Netlist:
        # constants occupy temp ids 0..2 so union-find roots favour them
        self.uf.extend(_NUM_CONST_NETS)
        self.net_name.extend(("const0", "const1", "constx"))
        netlist = Netlist(top)
        module = self.source.modules[top]
        root = netlist.hierarchy
        root.module = top
        ids = self._instantiate(module, (), root, bindings=None, depth=0)
        port_slots = self.plans[top].port_slots
        for pname in module.port_order:
            decl = module.port_decls.get(pname)
            if decl is None:
                raise ElaborationError(
                    f"top module port {pname!r} has no direction declaration"
                )
            bits = [ids[s] for s in port_slots[pname]]
            if decl.direction == "input":
                self.top_inputs.extend(bits)
            elif decl.direction == "output":
                self.top_outputs.extend(bits)
            else:
                raise ElaborationError(
                    f"top-level inout port {pname!r} is not supported"
                )
        return self._compact(netlist)

    # -- per instance: stamp the definition's plan --------------------------

    def _instantiate(
        self,
        module: ast.Module,
        path: tuple[str, ...],
        hier: HierNode,
        bindings: list[tuple[str, list[int]]] | None,
        depth: int,
    ) -> list[int]:
        """Elaborate one module instance; returns its slot → temp id list.

        ``bindings`` pairs port names with parent net bit lists (None
        for the top module, whose ports become primary I/O).
        """
        if depth > self._MAX_DEPTH:
            raise ElaborationError(
                f"instance nesting deeper than {self._MAX_DEPTH} "
                f"(recursive instantiation of {module.name!r}?)"
            )
        prefix = ".".join(path)
        if bindings is not None:
            for pname, parent_bits in bindings:
                if pname not in module.port_decls:
                    raise ElaborationError(
                        f"module {module.name!r} has no port {pname!r} "
                        f"(instance {prefix or module.name})"
                    )
                width = module.width_of(pname)
                if len(parent_bits) != width:
                    raise ElaborationError(
                        f"width mismatch on port {pname!r} of {prefix or module.name}: "
                        f"connected {len(parent_bits)} bits to {width}-bit port"
                    )
        plan = self.plans.get(module.name)
        if plan is None:
            plan = self.plans[module.name] = self._plan(module, prefix)
        self.instances_stamped += 1

        dotted = prefix + "." if prefix else ""
        n_local = len(plan.local_names)
        base = self.uf.extend(n_local)
        self.net_name.extend([dotted + name for name in plan.local_names])
        ids = [CONST0, CONST1, CONSTX, *range(base, base + n_local)]

        union = self.uf.union
        if bindings is not None:
            port_slots = plan.port_slots
            for pname, parent_bits in bindings:
                for slot, pb in zip(port_slots[pname], parent_bits):
                    union(ids[slot], pb)
        for a, b in plan.unions:
            union(ids[a], ids[b])

        gates = self.gates
        for gtype, gname, ins, out in plan.gates:
            gates.append(
                (gtype, dotted + gname, path, tuple([ids[s] for s in ins]), ids[out])
            )

        for inst, child_def, late_names, child_bindings in plan.children:
            for name in late_names:
                ids.append(self.uf.extend(1))
                self.net_name.append(dotted + name)
            child_path = path + (inst.instance_name,)
            child_node = HierNode(
                name=inst.instance_name, module=inst.module_name, path=child_path
            )
            hier.children[inst.instance_name] = child_node
            self._instantiate(
                child_def,
                child_path,
                child_node,
                [(p, [ids[s] for s in slots]) for p, slots in child_bindings],
                depth + 1,
            )
        return ids

    # -- per definition: resolve the module body to slots -------------------

    def _plan(self, module: ast.Module, prefix: str) -> _ModulePlan:
        """Build ``module``'s plan; every definition-level check runs here.

        ``prefix`` is the path of the instance that triggered planning
        (the definition's first); it only words the error messages.
        """
        plan = _ModulePlan()
        # names of slots 3.. in allocation order: locals, then late names
        names: list[str] = []
        scope: dict[str, list[int]] = {}

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
                plan.unions.extend((b, CONST0) for b in bits)
            elif ndecl.kind == "supply1":
                plan.unions.extend((b, CONST1) for b in bits)

        # continuous assigns are aliases
        for assign in module.assigns:
            lhs = self._resolve(assign.lhs, scope, names, module, prefix, assign.line)
            rhs = self._resolve(assign.rhs, scope, names, module, prefix, assign.line)
            if len(lhs) != len(rhs):
                raise ElaborationError(
                    f"assign width mismatch in {module.name} line {assign.line}: "
                    f"{len(lhs)} vs {len(rhs)} bits"
                )
            plan.unions.extend(zip(lhs, rhs))

        # primitive gates
        unnamed = 0
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
            plan.gates.append(
                (gate.gtype, gname, tuple(t[0] for t in terms[1:]), terms[0][0])
            )
        plan.local_names = names[:]

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
                (inst, child_def, names[n_before:], tuple(child_bindings.items()))
            )
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

    def _compact(self, netlist: Netlist) -> Netlist:
        """Canonicalize net groups, build the final dense netlist."""
        roots = self.uf.roots()
        for cid in (CONST0, CONST1, CONSTX):
            if roots[cid] != cid:
                raise ElaborationError("constant nets were merged together")

        # representative name per root: shortest, tie-break lexical.  A
        # root is its group's smallest id, hence the first of its group
        # this loop meets: the dict fills in ascending root order, which
        # is the groups' first-appearance order and their final numbering.
        best_name: dict[int, str] = {}
        for root, name in zip(roots, self.net_name):
            if root < _NUM_CONST_NETS:
                continue
            cur = best_name.get(root)
            if cur is None or (len(name), name) < (len(cur), cur):
                best_name[root] = name
        final_of_root = {CONST0: CONST0, CONST1: CONST1, CONSTX: CONSTX}
        for root, name in best_name.items():
            final_of_root[root] = netlist.add_net(name)
        final_of = [final_of_root[root] for root in roots]

        for gtype, name, path, ins, out in self.gates:
            netlist.add_gate(
                gtype,
                name,
                path,
                tuple([final_of[i] for i in ins]),
                final_of[out],
            )

        input_bit: dict[int, str] = {}
        for t in self.top_inputs:
            nid = final_of[t]
            if nid < _NUM_CONST_NETS:
                raise ElaborationError(
                    "a primary input is tied to a constant net"
                )
            if nid in input_bit:
                raise ElaborationError(
                    f"primary inputs {input_bit[nid]!r} and "
                    f"{self.net_name[t]!r} are aliased to one net"
                )
            input_bit[nid] = self.net_name[t]
            netlist.inputs.append(nid)
        netlist.outputs.extend(final_of[t] for t in self.top_outputs)
        netlist.finalize()
        return netlist


class NetlistBuilder:
    """Programmatic netlist construction for tests and generators.

    A thin convenience wrapper over :class:`Netlist` that manages net
    names and optional hierarchy grouping without going through Verilog
    text.  Example::

        nb = NetlistBuilder("toy")
        a, b = nb.input("a"), nb.input("b")
        y = nb.net("y")
        nb.gate("nand", (a, b), y)
        nb.output_net(y)
        netlist = nb.build()
    """

    def __init__(self, top: str) -> None:
        self._netlist = Netlist(top)
        self._unnamed = 0
        self._built = False

    def net(self, name: str | None = None) -> int:
        """Create a fresh net (auto-named ``_n<i>`` when unnamed)."""
        if name is None:
            name = f"_n{self._unnamed}"
            self._unnamed += 1
        return self._netlist.add_net(name)

    def input(self, name: str) -> int:
        """Create a primary-input net."""
        nid = self._netlist.add_net(name)
        self._netlist.inputs.append(nid)
        return nid

    def output_net(self, nid: int) -> None:
        """Mark an existing net as a primary output."""
        self._netlist.outputs.append(nid)

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
            name = f"_g{len(self._netlist.gates)}"
        hier_name = ".".join((*path, name))
        self._ensure_path(path)
        return self._netlist.add_gate(gtype, hier_name, path, tuple(inputs), output)

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
        """Finalize and return the netlist (single use)."""
        if self._built:
            raise ElaborationError("NetlistBuilder.build() called twice")
        self._built = True
        self._netlist.finalize()
        return self._netlist
