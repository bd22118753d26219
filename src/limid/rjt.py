"""Gradual rooted junction trees over influence diagrams.

A rooted junction tree assigns every diagram node j a cluster C_j (the
node's *root cluster*) and arranges the clusters in a directed tree such
that

  (a) for any two clusters, every cluster on the undirected path between
      them contains their intersection (running intersection),
  (b) each cluster is the root of the subtree formed by the clusters
      containing its root node, and
  (c) each cluster contains the parents of its root node.

These force the tree to be *gradual*: each non-root cluster holds exactly
one node its parent cluster lacks.  Cluster state spaces therefore factor
the joint distribution cluster by cluster, which is what the MIP model
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagram import InfluenceDiagram, check_order, topological_order


@dataclass(frozen=True)
class Cluster:
    root: str
    members: Tuple[str, ...]


@dataclass(frozen=True)
class RootedJunctionTree:
    """Clusters keyed by their root node, parent links, and the build order."""

    order: Tuple[str, ...]
    clusters: Dict[str, Cluster]
    parent: Dict[str, Optional[str]]

    def members(self, root: str) -> Tuple[str, ...]:
        return self.clusters[root].members

    def preorder(self, start: Optional[str] = None) -> List[str]:
        """Cluster roots of the subtree of C_start (the whole tree by
        default) from the top down, parents before children and siblings in
        node order.  After a re-hang the node order itself may put a cluster
        before its tree parent, so compilation walks this order."""
        kids = _children_map(self.order, self.parent)
        roots = kids.get(None, []) if start is None else [start]
        if len(roots) != 1:
            raise ValueError(f"tree has {len(roots)} parentless clusters")
        out: List[str] = []
        stack = list(roots)
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(reversed(kids.get(cur, ())))
        return out

    def arcs(self) -> List[Tuple[str, str]]:
        return [(p, c) for c, p in self.parent.items() if p is not None]

    def width(self) -> int:
        return max(len(c.members) for c in self.clusters.values()) - 1


def _children_map(
    order: Sequence[str], parent: Dict[str, Optional[str]]
) -> Dict[Optional[str], List[str]]:
    """Children of each cluster in node order; parentless clusters under None."""
    kids: Dict[Optional[str], List[str]] = {}
    for c in order:
        kids.setdefault(parent.get(c), []).append(c)
    return kids


def _ancestors(parent: Dict[str, Optional[str]], r: str) -> List[str]:
    """r, its tree parent, and so on up to the tree root."""
    chain = [r]
    while parent.get(chain[-1]) is not None:
        chain.append(parent[chain[-1]])
    return chain


def _path(parent: Dict[str, Optional[str]], a: str, b: str) -> List[str]:
    """Roots on the directed path C_a -> C_b, both ends included; empty when
    C_a is not an ancestor of C_b."""
    chain = _ancestors(parent, b)
    if a not in chain:
        return []
    return chain[chain.index(a)::-1]


def tree_from_members(
    order: Sequence[str],
    member_map: Dict[str, Sequence[str]],
    parent: Dict[str, Optional[str]],
) -> RootedJunctionTree:
    """Assemble a tree from explicit clusters (members get sorted)."""
    pos = {n: i for i, n in enumerate(order)}
    clusters = {
        r: Cluster(root=r, members=tuple(sorted(ms, key=pos.__getitem__)))
        for r, ms in member_map.items()
    }
    return RootedJunctionTree(order=tuple(order), clusters=clusters, parent=dict(parent))


def build_rjt(
    diagram: InfluenceDiagram, order: Optional[Sequence[str]] = None
) -> RootedJunctionTree:
    """Construct the gradual rooted junction tree for a topological order.

    Nodes are processed last to first.  Each cluster starts as the node plus
    its parents, then absorbs everything later clusters still need below
    this point: when a finished cluster C_k attaches to the root cluster of
    q = max(C_k minus k), the members it shares must appear in C_q too, and
    so on down the tree.  Each cluster then hangs off the root cluster of
    its largest other member; singleton clusters of a disconnected piece
    hang off the order predecessor's cluster so one tree covers everything.
    """
    if order is None:
        order = topological_order(diagram)
    else:
        check_order(diagram, order)
        order = list(order)
    pos = {n: i for i, n in enumerate(order)}

    pending: Dict[str, Set[str]] = {}
    members: Dict[str, Set[str]] = {}
    parent: Dict[str, Optional[str]] = {}
    for j in reversed(order):
        cluster = {j} | set(diagram.parents(j)) | pending.pop(j, set())
        members[j] = cluster
        rest = cluster - {j}
        if rest:
            q = max(rest, key=pos.__getitem__)
            parent[j] = q
            pending.setdefault(q, set()).update(rest)
        else:
            parent[j] = None

    # Disconnected pieces: a parentless singleton that is not the first node
    # attaches to its order predecessor's cluster.
    for i, j in enumerate(order):
        if i > 0 and parent[j] is None:
            parent[j] = order[i - 1]

    return tree_from_members(order, members, parent)


def validate_rjt(tree: RootedJunctionTree, diagram: InfluenceDiagram) -> List[str]:
    """Check Definition 2.1 plus tree shape; returns violations as data."""
    problems: List[str] = []
    names = diagram.names()
    if sorted(tree.order) != sorted(names):
        problems.append("tree order is not a permutation of the diagram's nodes")
        return problems
    pos = {n: i for i, n in enumerate(tree.order)}

    if set(tree.clusters) != set(names):
        missing = set(names) - set(tree.clusters)
        extra = set(tree.clusters) - set(names)
        if missing:
            problems.append(f"nodes without a root cluster: {sorted(missing)}")
        if extra:
            problems.append(f"clusters rooted at unknown nodes: {sorted(extra)}")
        return problems

    for r, cluster in tree.clusters.items():
        if cluster.root != r:
            problems.append(f"cluster stored under {r!r} has root {cluster.root!r}")
        if r not in cluster.members:
            problems.append(f"cluster of {r!r} does not contain its root")
        if list(cluster.members) != sorted(cluster.members, key=pos.__getitem__):
            problems.append(f"members of cluster {r!r} are not in topological order")
        for p in diagram.parents(r):
            if p not in cluster.members:
                problems.append(f"cluster of {r!r} is missing parent {p!r}")

    # Parent links must form one tree.
    roots = [r for r in tree.clusters if tree.parent.get(r) is None]
    if len(roots) != 1:
        problems.append(f"expected one parentless cluster, found {sorted(roots)}")
        return problems
    seen = frozenset(tree.preorder(roots[0]))
    if seen != set(tree.clusters):
        problems.append(
            f"clusters unreachable from the tree root: {sorted(set(tree.clusters) - seen)}"
        )
        return problems

    # Running intersection, checked per node: the clusters containing u must
    # form a connected subtree whose topmost cluster is u's own.
    tops_of: Dict[str, List[str]] = {u: [] for u in names}
    for r, cluster in tree.clusters.items():
        p = tree.parent.get(r)
        for u in cluster.members:
            if p is None or u not in tree.clusters[p].members:
                tops_of[u].append(r)
    for u, tops in tops_of.items():
        if len(tops) != 1:
            problems.append(
                f"clusters containing {u!r} form {len(tops)} disconnected groups"
            )
        elif tops[0] != u:
            problems.append(
                f"topmost cluster containing {u!r} is rooted at {tops[0]!r}, "
                f"not at {u!r}"
            )

    # Gradual property: one fresh member per non-root cluster.
    for r in tree.clusters:
        p = tree.parent.get(r)
        if p is None:
            continue
        fresh = set(tree.clusters[r].members) - set(tree.clusters[p].members)
        if fresh != {r}:
            problems.append(
                f"cluster {r!r} introduces {sorted(fresh)} over its parent, "
                f"expected exactly {{{r!r}}}"
            )
    return problems


def modify_rjt(
    tree: RootedJunctionTree,
    targets: Iterable[str],
    trace: Optional[List[Tuple[Tuple[str, str], RootedJunctionTree]]] = None,
) -> RootedJunctionTree:
    """Grow the tree so some cluster contains every node in ``targets``.

    The targets gather in the lowest target cluster reached so far, at
    first C_m for the topologically largest target m.  Each other target n,
    in node order, is routed there.  If that cluster lies above C_n
    (possible after an earlier re-hang), the targets it holds are carried
    down the path to C_n, which takes its place.  Otherwise, unless C_n is
    above it, the branch holding it is first cut from the lowest common
    ancestor e of the two and re-hung below C_n (filling the clusters from
    C_e to C_n with the severed arc's intersection so running intersection
    survives); then n is added to every cluster on the path down from C_n.
    Clusters and nodes are never removed, so the result contains the input
    clusters member-wise.

    ``trace``, when given, collects ``((step, node), snapshot)`` pairs after
    each fill / rehang / extend step.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must name at least one node")
    for t in targets:
        if t not in tree.clusters:
            raise ValueError(f"target {t!r} is not a diagram node")
    pos = {n: i for i, n in enumerate(tree.order)}

    members: Dict[str, Set[str]] = {
        r: set(c.members) for r, c in tree.clusters.items()
    }
    parent: Dict[str, Optional[str]] = dict(tree.parent)

    def snapshot() -> RootedJunctionTree:
        return tree_from_members(tree.order, members, parent)

    dest = max(targets, key=pos.__getitem__)
    rest = sorted((set(targets) - {dest}), key=pos.__getitem__)
    for n in rest:
        if n in members[dest]:
            continue
        up_dest = _ancestors(parent, dest)
        top, moved = n, {n}
        if n not in up_dest:
            above_n = set(_ancestors(parent, n))
            i = next(k for k, c in enumerate(up_dest) if c in above_n)
            if i == 0:  # the destination lies above C_n: C_n takes its place
                top, moved, dest = dest, members[dest] & set(targets), n
            else:
                e, g = up_dest[i], up_dest[i - 1]
                carried = members[e] & members[g]
                for c in _path(parent, e, n):
                    members[c] |= carried
                if trace is not None:
                    trace.append((("fill", n), snapshot()))
                parent[g] = n
                if trace is not None:
                    trace.append((("rehang", n), snapshot()))
        for c in _path(parent, top, dest):
            members[c] |= moved
        if trace is not None:
            trace.append((("extend", n), snapshot()))
    return snapshot()


def to_dot(tree: RootedJunctionTree) -> str:
    """Cluster tree in DOT syntax (one box per cluster, arcs parent->child)."""
    lines = ["digraph clusters {", "  node [shape=box];"]
    for r in tree.order:
        label = " ".join(tree.members(r))
        lines.append(f'  "{r}" [label="{label}"];')
    for p, c in tree.arcs():
        lines.append(f'  "{p}" -> "{c}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
