"""Structural validation of message format graphs.

The rules implemented here combine the consistency requirements of the paper
(Section V-A: the boundary method must be consistent with the node type) with
the referential constraints the wire runtime needs to serialize and parse
messages deterministically (references must resolve, must be readable before
they are needed, derived fields must not clash with user data, ...).

Both original specifications and transformed graphs are validated: every
transformation is required to keep the graph valid, which is checked by the
transformation engine and by the test suite.
"""

from __future__ import annotations

from .boundary import BoundaryKind
from .errors import GraphError
from .graph import FormatGraph, is_greedy, parse_window_known
from .node import Node, NodeType
from .values import ValueKind

_TERMINAL_BOUNDARIES = frozenset(
    {BoundaryKind.FIXED, BoundaryKind.DELIMITED, BoundaryKind.LENGTH, BoundaryKind.END}
)
_SEQUENCE_BOUNDARIES = frozenset(
    {BoundaryKind.DELEGATED, BoundaryKind.LENGTH, BoundaryKind.END}
)
_REPETITION_BOUNDARIES = frozenset(
    {BoundaryKind.DELIMITED, BoundaryKind.LENGTH, BoundaryKind.END, BoundaryKind.COUNTER}
)


def validate_graph(graph: FormatGraph) -> None:
    """Raise :class:`GraphError` when ``graph`` violates any structural rule."""
    # One traversal: every rule below reads this pre-order list.
    nodes = list(graph.nodes())
    node_map: dict[str, Node] = {}
    order: dict[str, int] = {}
    ref_targets: set[str] = set()
    for index, node in enumerate(nodes):
        if node.name in node_map:
            raise GraphError(f"duplicate node name {node.name!r} in graph {graph.name!r}")
        node_map[node.name] = node
        order[node.name] = index
        if node.boundary.kind in (BoundaryKind.LENGTH, BoundaryKind.COUNTER):
            ref_targets.add(node.boundary.ref)  # type: ignore[arg-type]

    for node in nodes:
        _check_parent_links(node)
        _check_type_shape(node)
        _check_boundary_compatibility(node)
        _check_terminal_details(node, ref_targets)
        _check_references(node, node_map, order)
        _check_obfuscation_metadata(node)

    _check_length_target_uniqueness(nodes)
    _check_window_layout(graph.root, _greedy_map(nodes))


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------


def _check_parent_links(node: Node) -> None:
    for child in node.children:
        if child.parent is not node:
            raise GraphError(
                f"node {child.name!r} has a stale parent link (expected {node.name!r})"
            )


def _check_type_shape(node: Node) -> None:
    if node.type is NodeType.TERMINAL:
        if node.children:
            raise GraphError(f"terminal {node.name!r} cannot have children")
        return
    if node.type is NodeType.SEQUENCE:
        if not node.children:
            raise GraphError(f"sequence {node.name!r} must have at least one child")
        return
    # Optional, Repetition and Tabular wrap exactly one sub-node.
    if len(node.children) != 1:
        raise GraphError(
            f"{node.type.value} node {node.name!r} must have exactly one child, "
            f"got {len(node.children)}"
        )


def _check_boundary_compatibility(node: Node) -> None:
    kind = node.boundary.kind
    if node.type is NodeType.TERMINAL and kind not in _TERMINAL_BOUNDARIES:
        raise GraphError(f"terminal {node.name!r} cannot use a {kind.value} boundary")
    if node.type is NodeType.SEQUENCE and kind not in _SEQUENCE_BOUNDARIES:
        raise GraphError(f"sequence {node.name!r} cannot use a {kind.value} boundary")
    if node.type is NodeType.OPTIONAL and kind is not BoundaryKind.DELEGATED:
        raise GraphError(f"optional {node.name!r} must use a delegated boundary")
    if node.type is NodeType.REPETITION and kind not in _REPETITION_BOUNDARIES:
        raise GraphError(f"repetition {node.name!r} cannot use a {kind.value} boundary")
    if node.type is NodeType.TABULAR and kind is not BoundaryKind.COUNTER:
        raise GraphError(f"tabular {node.name!r} must use a counter boundary")


def _check_terminal_details(node: Node, ref_targets: set[str]) -> None:
    if node.type is not NodeType.TERMINAL:
        return
    if node.value_kind is ValueKind.UINT and node.boundary.kind is not BoundaryKind.FIXED:
        raise GraphError(f"uint terminal {node.name!r} requires a fixed boundary")
    if node.is_pad:
        if node.boundary.kind is not BoundaryKind.FIXED:
            raise GraphError(f"pad terminal {node.name!r} requires a fixed boundary")
        if node.origin is not None:
            raise GraphError(f"pad terminal {node.name!r} cannot carry a logical origin")
    if node.name in ref_targets:
        if node.value_kind is not ValueKind.UINT or node.boundary.kind is not BoundaryKind.FIXED:
            raise GraphError(
                f"terminal {node.name!r} is a length/counter field and must be a fixed-size uint"
            )
        if node.origin is not None:
            raise GraphError(
                f"terminal {node.name!r} is a derived length/counter field and cannot carry "
                f"a logical origin"
            )


def _check_references(
    node: Node,
    node_map: dict[str, Node],
    order: dict[str, int],
) -> None:
    for ref in node.referenced_names():
        target = node_map.get(ref)
        if target is None:
            raise GraphError(f"node {node.name!r} references unknown node {ref!r}")
        if target.type is not NodeType.TERMINAL:
            raise GraphError(f"node {node.name!r} references non-terminal node {ref!r}")
        if order[target.name] >= order[node.name]:
            raise GraphError(
                f"node {node.name!r} references {ref!r} which is serialized after it"
            )
        _check_reference_scoping(node, target)


def _check_reference_scoping(node: Node, target: Node) -> None:
    """Every variable-arity ancestor of the target must also enclose the referencing node.

    Otherwise the parser could not tell which instance of the target's value to
    use (repetitions) or whether the value exists at all (optionals).
    """
    node_ancestors = {id(ancestor) for ancestor in node.ancestors()}
    for ancestor in target.ancestors():
        if ancestor.type in (NodeType.REPETITION, NodeType.TABULAR, NodeType.OPTIONAL):
            if id(ancestor) not in node_ancestors:
                raise GraphError(
                    f"node {node.name!r} references {target.name!r} across the "
                    f"{ancestor.type.value} node {ancestor.name!r}"
                )


def _check_obfuscation_metadata(node: Node) -> None:
    if node.synthesis is not None:
        if node.type is not NodeType.SEQUENCE:
            raise GraphError(f"synthesis node {node.name!r} must be a sequence")
        if not all(child.type is NodeType.TERMINAL for child in node.children):
            raise GraphError(f"synthesis node {node.name!r} must have terminal children")
        derived = {
            child.boundary.ref
            for child in node.children
            if child.boundary.kind is BoundaryKind.LENGTH
        }
        value_children = [child for child in node.children if child.name not in derived]
        if len(value_children) != 2:
            raise GraphError(
                f"synthesis node {node.name!r} must have exactly two value-carrying "
                f"sub-nodes (found {len(value_children)})"
            )
        if node.origin is None:
            raise GraphError(f"synthesis node {node.name!r} must carry a logical origin")
    if node.mirrored:
        if node.boundary.kind is BoundaryKind.DELIMITED:
            raise GraphError(f"mirrored node {node.name!r} cannot use a delimited boundary")
        if not parse_window_known(node):
            raise GraphError(
                f"mirrored node {node.name!r} has no parse-time determinable extent"
            )
    for op in node.codec_chain:
        if node.type is not NodeType.TERMINAL:
            raise GraphError(f"only terminals may carry a codec chain ({node.name!r})")
        if op.bytewise and node.boundary.kind is BoundaryKind.DELIMITED:
            raise GraphError(
                f"bytewise value operation on delimited terminal {node.name!r} could "
                f"collide with the delimiter"
            )
        if not op.bytewise:
            if node.value_kind is not ValueKind.UINT:
                raise GraphError(
                    f"integer value operation on non-uint terminal {node.name!r}"
                )
            if op.width != node.boundary.size:
                raise GraphError(
                    f"integer value operation width mismatch on terminal {node.name!r}"
                )


def _greedy_map(nodes: list[Node]) -> dict[int, bool]:
    """:func:`~repro.core.graph.is_greedy` of every node, keyed by ``id``.

    ``nodes`` is in pre-order, so walking it backwards settles every child
    before its parent: one pass instead of a recursive walk per node.
    """
    greedy: dict[int, bool] = {}

    def settled(child: Node) -> bool:
        return greedy[id(child)]

    for node in reversed(nodes):
        greedy[id(node)] = is_greedy(node, settled)
    return greedy


def _check_window_layout(root: Node, greedy: dict[int, bool]) -> None:
    """Greedy nodes (END/remaining-bytes semantics) must sit in tail position.

    A node whose parsing consumes the rest of its enclosing window (END
    terminals and repetitions, presence-less Optionals, sequences containing
    one) must not be followed by any sibling content in the same window,
    otherwise the parser would swallow that content.  Nodes that open their
    own window (Length boundary, mirrored regions) reset the rule for their
    children.  ``greedy`` is :func:`_greedy_map` of the graph.
    """

    def visit(node: Node, tail_allowed: bool) -> None:
        if greedy[id(node)] and not tail_allowed:
            raise GraphError(
                f"greedy node {node.name!r} is not in tail position of its window"
            )
        opens_window = node.boundary.kind is BoundaryKind.LENGTH or node.mirrored
        child_tail_base = True if opens_window else tail_allowed
        if node.type is NodeType.SEQUENCE:
            for index, child in enumerate(node.children):
                visit(child, child_tail_base and index == len(node.children) - 1)
        elif node.type is NodeType.OPTIONAL:
            visit(node.children[0], child_tail_base)
        elif node.type in (NodeType.REPETITION, NodeType.TABULAR):
            # Elements are never in tail position: another element (or the
            # terminator) may follow the current one.
            visit(node.children[0], False)

    visit(root, True)


def _check_length_target_uniqueness(nodes: list[Node]) -> None:
    """A terminal may back at most one LENGTH boundary (counters may be shared)."""
    length_sources: dict[str, str] = {}
    for node in nodes:
        if node.boundary.kind is BoundaryKind.LENGTH:
            ref = node.boundary.ref  # type: ignore[assignment]
            previous = length_sources.get(ref)
            if previous is not None:
                raise GraphError(
                    f"terminal {ref!r} is the length of both {previous!r} and {node.name!r}"
                )
            length_sources[ref] = node.name
