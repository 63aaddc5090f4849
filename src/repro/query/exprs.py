"""Small expression combinators for filters and projections.

Expressions evaluate against ``(StepContext, Traverser)`` pairs. Each
:class:`X` node records whether it reads vertex data (``needs_vertex``) so
the compiler can route vertex-free predicates anywhere (saving a hop).

Usage::

    from repro.query.exprs import X

    pred = X.prop("weight").gt(X.param("min_weight"))
    expr = X.prop("firstName")
    ident = X.vertex()           # current vertex id
    bound = X.binding("friend")  # a payload slot bound earlier with .as_()

Binding references are resolved to payload slot indexes at compile time via
:meth:`X.resolve`.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CompilationError


class X:
    """A deferred expression over (context, traverser).

    Build leaf nodes with the class methods, combine with comparison and
    boolean methods. Call :meth:`resolve` with the compiler's slot table to
    obtain the runtime callable.
    """

    def __init__(
        self,
        kind: str,
        needs_vertex: bool,
        describe: str,
        build: Callable[[Dict[str, int]], Callable[[Any, Any], Any]],
    ) -> None:
        self.kind = kind
        self.needs_vertex = needs_vertex
        self.describe = describe
        self._build = build
        #: the binding a bare :meth:`binding` leaf reads (None otherwise)
        self.binding_name: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"X<{self.describe}>"

    # -- leaves ----------------------------------------------------------

    @classmethod
    def prop(cls, key: str, default: Any = None) -> "X":
        """The current vertex's property ``key``."""
        return cls(
            "prop",
            True,
            f"prop({key})",
            lambda slots: lambda ctx, trav: ctx.vertex_prop(trav.vertex, key, default),
        )

    @classmethod
    def label(cls) -> "X":
        """The current vertex's label."""
        return cls(
            "label",
            True,
            "label()",
            lambda slots: lambda ctx, trav: ctx.vertex_label(trav.vertex),
        )

    @classmethod
    def vertex(cls) -> "X":
        """The current vertex id."""
        return cls(
            "vertex",
            False,
            "vertex()",
            lambda slots: lambda ctx, trav: trav.vertex,
        )

    @classmethod
    def param(cls, name: str) -> "X":
        """A query parameter."""
        return cls(
            "param",
            False,
            f"param({name})",
            lambda slots: lambda ctx, trav: ctx.param(name),
        )

    @classmethod
    def const(cls, value: Any) -> "X":
        """A literal constant."""
        return cls(
            "const",
            False,
            f"const({value!r})",
            lambda slots: lambda ctx, trav: value,
        )

    @classmethod
    def binding(cls, name: str) -> "X":
        """A payload slot bound earlier in the traversal (``as_``)."""

        def build(slots: Dict[str, int]) -> Callable[[Any, Any], Any]:
            if name not in slots:
                raise CompilationError(f"unknown binding {name!r}")
            slot = slots[name]
            return lambda ctx, trav: trav.payload[slot]

        leaf = cls("binding", False, f"binding({name})", build)
        leaf.binding_name = name
        return leaf

    @classmethod
    def loops(cls) -> "X":
        """The traverser's loop counter (hop count in repeat steps)."""
        return cls(
            "loops",
            False,
            "loops()",
            lambda slots: lambda ctx, trav: trav.loops,
        )

    @classmethod
    def wrap(cls, fn: Callable[[Any, Any], Any], needs_vertex: bool = True) -> "X":
        """Escape hatch: lift a raw ``(ctx, trav) -> value`` function."""
        return cls("wrap", needs_vertex, "wrap(fn)", lambda slots: fn)

    # -- combinators -------------------------------------------------------

    def _binary(self, other: "X", op: Callable[[Any, Any], Any], sym: str) -> "X":
        if not isinstance(other, X):
            other = X.const(other)
        left, right = self, other

        def build(slots: Dict[str, int]) -> Callable[[Any, Any], Any]:
            lf = left._build(slots)
            rf = right._build(slots)
            return lambda ctx, trav: op(lf(ctx, trav), rf(ctx, trav))

        return X(
            "binary",
            left.needs_vertex or right.needs_vertex,
            f"({left.describe} {sym} {right.describe})",
            build,
        )

    def eq(self, other: Any) -> "X":
        """Equality comparison (operands auto-wrap to constants)."""
        return self._binary(other, operator.eq, "==")

    def neq(self, other: Any) -> "X":
        """Inequality comparison."""
        return self._binary(other, operator.ne, "!=")

    def lt(self, other: Any) -> "X":
        """Less-than comparison."""
        return self._binary(other, operator.lt, "<")

    def le(self, other: Any) -> "X":
        """Less-or-equal comparison."""
        return self._binary(other, operator.le, "<=")

    def gt(self, other: Any) -> "X":
        """Greater-than comparison."""
        return self._binary(other, operator.gt, ">")

    def ge(self, other: Any) -> "X":
        """Greater-or-equal comparison."""
        return self._binary(other, operator.ge, ">=")

    def and_(self, other: "X") -> "X":
        """Boolean conjunction."""
        return self._binary(other, lambda a, b: bool(a) and bool(b), "and")

    def or_(self, other: "X") -> "X":
        """Boolean disjunction."""
        return self._binary(other, lambda a, b: bool(a) or bool(b), "or")

    def not_(self) -> "X":
        """Boolean negation."""
        inner = self

        def build(slots: Dict[str, int]) -> Callable[[Any, Any], Any]:
            f = inner._build(slots)
            return lambda ctx, trav: not f(ctx, trav)

        return X("not", inner.needs_vertex, f"not {inner.describe}", build)

    def is_in(self, other: Any) -> "X":
        """Membership test (``left in right``)."""
        return self._binary(other, lambda a, b: a in b, "in")

    @classmethod
    def edge_exists_to(cls, target: "X", label: Optional[str] = None,
                       direction: str = "out") -> "X":
        """True when the current vertex has an edge to ``target``.

        The adjacency check runs on the current vertex's partition (local
        CSR scan) — the primitive that closes cycles in pattern matching
        (e.g. the a→b→c→a triangle's final edge).
        """
        if not isinstance(target, X):
            target = cls.const(target)

        def build(slots: Dict[str, int]) -> Callable[[Any, Any], Any]:
            tf = target._build(slots)
            return lambda ctx, trav: tf(ctx, trav) in ctx.store.neighbors(
                trav.vertex, direction, label
            )

        return cls(
            "edge_exists",
            True,
            f"edge({direction},{label}) -> {target.describe}",
            build,
        )

    def add(self, other: Any) -> "X":
        """Arithmetic addition."""
        return self._binary(other, operator.add, "+")

    def sub(self, other: Any) -> "X":
        """Arithmetic subtraction."""
        return self._binary(other, operator.sub, "-")

    # -- resolution --------------------------------------------------------

    def resolve(self, slots: Dict[str, int]) -> Callable[[Any, Any], Any]:
        """Bind binding names to payload slots, producing the runtime fn."""
        return self._build(slots)


def make_sort_key(
    parts: List[Tuple[X, str]],
    slots: Dict[str, int],
) -> Callable[[Any], Any]:
    """Compose a traverser-level sort key from (expr, "asc"|"desc") pairs.

    Aggregation barriers run partition-locally over already-projected
    payloads, so sort expressions must be vertex-free (bindings, constants,
    loop counters); the compiler materializes any needed properties into
    payload slots first. Descending parts are wrapped in an order-inverting
    proxy so mixed directions and non-numeric keys both work.
    """
    from repro.core.steps import _NegKey  # late import to avoid a cycle

    resolved = []
    for expr, direction in parts:
        if direction not in ("asc", "desc"):
            raise CompilationError(f"sort direction must be asc/desc: {direction!r}")
        if expr.needs_vertex:
            raise CompilationError(
                f"sort expression {expr.describe} reads vertex data; project it "
                "into a binding before ordering"
            )
        resolved.append((expr.resolve(slots), direction == "desc"))

    def key(trav: Any) -> Tuple[Any, ...]:
        out = []
        for fn, desc in resolved:
            value = fn(None, trav)
            out.append(_NegKey(value) if desc else value)
        return tuple(out)

    return key
