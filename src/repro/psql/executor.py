"""PSQL query execution.

The paper preprocesses PSQL into SQL plus callable spatial operators; we
execute the AST directly against a :class:`~repro.relational.catalog.Database`,
but the moving parts are the same ones the paper names:

- the at-clause drives **direct spatial search** through the picture's
  packed R-tree (window queries, Section 3.1);
- two loc operands trigger **juxtaposition** via a synchronized R-tree
  join (:mod:`repro.rtree.join`);
- a nested ``select`` as an at-operand is a **nested mapping**: the inner
  query binds a set of locations that direct the outer search;
- the where-clause runs conventional predicate evaluation with pictorial
  functions available as "system defined procedures".  It and the
  select list are compiled once per execution into closures; a join
  applies the where's leading single-relation conjuncts (chosen by the
  planner) to each side's rows before its exact refinement.

MBR semantics: spatial operators compare minimal bounding rectangles, as
R-tree leaf entries do in the paper; when an operand's actual geometry is
a polygon :func:`_refine` additionally applies the exact region test.
"""

from __future__ import annotations

import copy
import operator
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable, Optional, Sequence

from repro import obs
from repro.geometry.point import Point
from repro.geometry.predicates import OPERATORS
from repro.geometry.rect import Rect
from repro.geometry.region import Region
from repro.geometry.segment import Segment
from repro.psql import ast
from repro.psql.errors import PsqlError, PsqlSemanticError
from repro.psql.functions import FunctionRegistry
from repro.psql.parser import parse, parse_statement
from repro.psql.planner import Plan, PlanNode, plan_query, resolve_column
from repro.psql.prepare import PreparedStatement
from repro.psql.result import PictorialObject, QueryResult
from repro.relational.catalog import Database, mbr_of_value
from repro.relational.relation import Relation, RowId
from repro.rtree.join import JoinStats, nested_window_join, spatial_join
from repro.rtree.search import SearchStats

#: One candidate combination of rows: relation name -> (row id, row).
Binding = dict[str, tuple[RowId, dict[str, Any]]]
#: A compiled where-clause or select-list expression over one binding.
Evaluator = Callable[[Binding], Any]

_FLIP = {"covering": "covered-by", "covered-by": "covering"}


class Session:
    """A query session against one database.

    Keeps a :class:`FunctionRegistry` so applications can install their
    own pictorial functions once and use them across queries::

        session = Session(db)
        session.functions.register("runway-heading", my_fn)
        result = session.execute("select city from cities ...")

    Every query is planned before it runs (:mod:`repro.psql.planner`);
    plans are cached per ``(query AST, data generation)`` so repeated
    queries skip path enumeration until the data changes.  Prefix a
    query with ``explain`` (or ``explain analyze``) to get the plan
    itself back as a one-column result.
    """

    #: plans kept per session before the oldest is dropped
    PLAN_CACHE_SIZE = 64

    def __init__(self, db: Database):
        self.db = db
        self.functions = FunctionRegistry()
        self._plans: OrderedDict[tuple[ast.Query, int], Plan] = \
            OrderedDict()
        #: Optional :class:`repro.advisor.QueryLog`.  When set (and
        #: enabled) every query run through :meth:`execute` is recorded
        #: with its estimated vs. actual cost; ``None`` (the default)
        #: costs a single attribute test per statement.
        self.query_log: Optional[Any] = None
        #: Prepared statements by id (:meth:`prepare`).
        self._prepared: dict[int, PreparedStatement] = {}
        self._next_statement_id = 1

    def execute(self, text: str) -> QueryResult:
        """Parse and run one PSQL statement (a query or an EXPLAIN)."""
        statement = parse_statement(text)
        if isinstance(statement, ast.Explain):
            return self.explain(statement)
        log = self.query_log
        if log is not None and log.enabled:
            return self._run_logged(text, statement, log)
        return self.run(statement)

    def _run_logged(self, text: str, query: ast.Query,
                    log: Any) -> QueryResult:
        """Run *query* in measure mode and record it in the workload log.

        Measure mode accumulates actual index-node accesses in execution
        locals (never on the shared cached plan, which concurrent
        executions may be reading), so capture piggybacks on the
        EXPLAIN ANALYZE machinery without copying the plan.
        """
        start = time.perf_counter()
        execution = _Execution(self, query, measure=True)
        result = execution.run()
        root = execution.plan.root
        log.record(text,
                   rows=len(result.rows),
                   est_cost=root.est_cost,
                   est_rows=root.est_rows,
                   accesses=execution.accesses,
                   seconds=time.perf_counter() - start)
        return result

    def run(self, query: ast.Query) -> QueryResult:
        """Run an already parsed query."""
        return _Execution(self, query).run()

    def prepare(self, text: str) -> PreparedStatement:
        """Register a ``?``-placeholder template for later execution.

        The template is split (not parsed — a bare ``?`` is not valid
        PSQL) now; each :meth:`execute_prepared` splices parameters in,
        parses once per distinct parameter set, and rides the session's
        ordinary plan cache keyed on the parsed AST.
        """
        statement = PreparedStatement(text, self._next_statement_id)
        self._next_statement_id += 1
        self._prepared[statement.statement_id] = statement
        return statement

    def prepared(self, statement_id: int) -> PreparedStatement:
        """Look up a prepared statement by id.

        Raises:
            PsqlError: for an unknown id.
        """
        try:
            return self._prepared[statement_id]
        except KeyError:
            raise PsqlError(
                f"unknown prepared statement {statement_id}") from None

    def execute_prepared(self, statement_id: int,
                         params: Sequence[str]) -> QueryResult:
        """Bind *params* into a prepared statement and run it.

        Equivalent to ``execute(template with params spliced in)`` —
        same results, same workload-log capture — minus the per-call
        lexer/parser cost once a parameter set has been seen.
        """
        stmt = self.prepared(statement_id)
        statement, text = stmt.bind(tuple(params))
        if isinstance(statement, ast.Explain):
            return self.explain(statement)
        log = self.query_log
        if log is not None and log.enabled:
            return self._run_logged(text, statement, log)
        return self.run(statement)

    def plan(self, query: ast.Query) -> Plan:
        """The (cached) plan for *query* at the current data generation."""
        key = (query, self.db.generation)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            if obs.ENABLED:
                obs.active().bump("psql.plan.cache_hits")
            return cached
        plan = plan_query(self.db, query)
        if obs.ENABLED:
            obs.active().bump("psql.plan.cache_misses")
        self._plans[key] = plan
        while len(self._plans) > self.PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan

    def explain(self, statement: ast.Explain) -> QueryResult:
        """Render (and for ANALYZE also run) the plan of a statement.

        The result has a single ``plan`` column with one row per plan
        line, so EXPLAIN output travels through every existing result
        channel — the REPL, the wire protocol, the server cache —
        unchanged.
        """
        plan = self.plan(statement.query)
        if statement.analyze:
            # Annotate a private copy: the cached plan must stay clean
            # for concurrent executions of the same query.
            plan = copy.deepcopy(plan)
            _Execution(self, statement.query, plan=plan,
                       annotate=True).run()
        result = QueryResult(columns=("plan",))
        result.rows = [(line,)
                       for line in plan.format(analyze=statement.analyze)]
        return result

    def explain_stats(self, text: str,
                      trace_tail: int = 12) -> tuple[QueryResult, str]:
        """Run one query under an isolated observability scope.

        Returns the :class:`QueryResult` plus a formatted report of every
        counter, timer and trace event the query produced — the payload
        behind the REPL's ``EXPLAIN STATS`` prefix.  Instrumentation is
        force-enabled for the duration of the query only; records still
        forward to any enclosing registry, so global totals (when the
        application keeps them) stay consistent.
        """
        query = parse(text)
        with obs.scope(enable=True) as registry:
            result = self.run(query)
        return result, registry.report(trace_tail=trace_tail)


def execute(db: Database, text: str) -> QueryResult:
    """One-shot convenience: ``Session(db).execute(text)``."""
    return Session(db).execute(text)


class _Execution:
    """State for executing a single query along its plan.

    The plan (built by :mod:`repro.psql.planner`, usually via the
    session's plan cache) decides every access path; execution dispatches
    on plan-node kinds instead of re-deriving the decisions.  With
    ``annotate=True`` each executed node additionally records its actual
    row count and index-node accesses — the ``EXPLAIN ANALYZE`` payload.
    """

    def __init__(self, session: Session, query: ast.Query,
                 plan: Optional[Plan] = None, annotate: bool = False,
                 measure: bool = False):
        self.session = session
        self.db = session.db
        self.query = query
        self.annotate = annotate
        # annotate implies measure: ANALYZE wants the same actual-access
        # numbers, it just also writes them onto its private plan copy.
        self.measure = annotate or measure
        #: Actual access-path node/page touches, accumulated in measure
        #: mode only — never written to (shared, cached) plan nodes.
        self.accesses = 0
        self.relations: dict[str, Relation] = {}
        for name in query.relations:
            if not self.db.has_relation(name):
                raise PsqlSemanticError(f"unknown relation {name!r}")
            self.relations[name] = self.db.relation(name)
        for pic in query.pictures:
            if not self.db.has_picture(pic):
                raise PsqlSemanticError(f"unknown picture {pic!r}")
        self.plan = plan if plan is not None else session.plan(query)
        self.window: Optional[Rect] = None
        self.items = self._expand_select()
        self.select = [self._compile_expression(expr)
                       for _label, expr in self.items]
        self.where = (None if query.where is None
                      else self._compile_condition(query.where))

    # -- top level ------------------------------------------------------------

    def run(self) -> QueryResult:
        with obs.timer("psql.execute"):
            bindings = self._bindings_from_indexes()
            if bindings is None:
                bindings = self._bindings_from_at()
            where = self.where
            if where is not None:
                candidates = len(bindings)
                bindings = [b for b in bindings if where(b)]
                if obs.ENABLED:
                    reg = obs.active()
                    reg.bump("psql.where.rows_in", candidates)
                    reg.bump("psql.where.rows_out", len(bindings))
                if self.annotate and self.plan.filter is not None:
                    self.plan.filter.actual_rows = len(bindings)
            result = self._project(bindings)
            if self.annotate:
                self.plan.root.actual_rows = len(result.rows)
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.queries")
            reg.bump("psql.rows_returned", len(result.rows))
        return result

    def _bindings_from_indexes(self) -> Optional[list[Binding]]:
        """Execute a B-tree access path, when the plan chose one.

        The paper indexes alphanumeric columns "the usual way" (B-trees);
        when a single-relation query has no at-clause but its where
        contains a sargable conjunct on an indexed column, the planner
        seeds the bindings from the index instead of a full scan.  The
        full where is re-checked afterwards, so this is purely an
        access-path optimisation.
        """
        node = self.plan.access
        if node.kind == "seq-scan":
            if obs.ENABLED:
                obs.active().bump("psql.plan.relation_scan")
                obs.trace("psql.plan", path="scan",
                          relation=node.props["relation"],
                          reason="no sargable indexed conjunct")
            return None
        if node.kind != "index-scan":
            return None
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        value = node.props["value"]
        index = relation.index_on(column)
        assert index is not None
        if op == "=":
            rows = relation.lookup(column, value)
        elif op in (">", ">="):
            rows = [(rid, relation.get(rid))
                    for _key, rid in index.range(value, None)]
        else:  # < or <=
            rows = [(rid, relation.get(rid))
                    for _key, rid in index.range(None, value)]
        # Half-open index ranges over- or under-approximate the strict
        # operators; the re-checked where-clause makes the result exact,
        # but a '<=' scan must include the boundary key itself.
        if op == "<=":
            rows += relation.lookup(column, value)
        seen: set[int] = set()
        bindings: list[Binding] = []
        for rid, row in rows:
            if rid not in seen:
                seen.add(rid)
                bindings.append({relation.name: (rid, row)})
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.index_scan")
            reg.bump("psql.index.rows_seeded", len(bindings))
            reg.trace("psql.plan", path="index", relation=relation.name,
                      column=column, op=op, rows=len(bindings))
        if self.measure:
            self.accesses += len(rows)
        if self.annotate:
            node.actual_rows = len(bindings)
            node.actual_accesses = len(rows)
        return bindings

    # -- at-clause evaluation ------------------------------------------------------

    def _bindings_from_at(self) -> list[Binding]:
        node = self.plan.access
        if node.kind in ("cross-product", "seq-scan"):
            bindings = self._cross_product(self.query.relations)
            if obs.ENABLED:
                obs.active().bump("psql.plan.cross_product")
                obs.active().bump("psql.at.rows_out", len(bindings))
                obs.trace("psql.plan", path="cross-product",
                          relations=list(self.query.relations),
                          rows=len(bindings))
            if self.measure:
                self.accesses += len(bindings)
            if self.annotate:
                node.actual_rows = len(bindings)
                node.actual_accesses = len(bindings)
            return bindings

        extend = None
        if node.kind == "extend-cross":
            extend = node
            node = node.children[0]
        if node.kind == "rtree-window":
            base = self._window_search(node)
        elif node.kind == "spatial-filter-scan":
            base = self._spatial_filter_scan(node)
        elif node.kind == "spatial-join":
            base = self._juxtaposition(node)
        else:
            assert node.kind == "nested-mapping", node.kind
            base = self._nested_mapping(node)
        if extend is None:
            return base
        bindings = self._extend_cross(base, extend.props["relations"])
        if self.annotate:
            extend.actual_rows = len(bindings)
        return bindings

    # -- case 1: direct spatial search against a window ------------------------------

    def _window_search(self, node: PlanNode) -> list[Binding]:
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        window: Rect = node.props["window"]
        self.window = window
        tree = self.db.picture(node.props["picture"]).index(relation.name,
                                                            column)
        stats = SearchStats() if self.measure else None
        rids = self._search_op(tree, op, window, relation, column,
                               stats=stats)
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.direct_spatial_search")
            reg.bump("psql.at.rows_out", len(rids))
            reg.trace("psql.plan", path="direct-spatial-search",
                      relation=relation.name, op=op, rows=len(rids))
        if stats is not None and stats.nodes_visited:
            # The disjoined complement also enumerates every heap
            # rid, so those reads count against the access path.
            extra = len(relation) if op == "disjoined" else 0
            self.accesses += stats.nodes_visited + extra
            if self.annotate:
                node.actual_accesses = stats.nodes_visited + extra
        if self.annotate:
            node.actual_rows = len(rids)
        return [{relation.name: (rid, relation.get(rid))} for rid in rids]

    def _spatial_filter_scan(self, node: PlanNode) -> list[Binding]:
        """MBR-test every tuple of the relation — no index involved.

        The planner only picks this when reading the whole heap beats
        the R-tree (essentially: ``disjoined`` with a large window,
        where the complement search touches most nodes *and* most rows).
        """
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        window: Rect = node.props["window"]
        self.window = window
        rids = [rid for rid, row in relation.rows()
                if _window_op(op, mbr_of_value(row[column]), window)]
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.spatial_filter_scan")
            reg.bump("psql.at.rows_out", len(rids))
            reg.trace("psql.plan", path="spatial-filter-scan",
                      relation=relation.name, op=op, rows=len(rids))
        if self.measure:
            self.accesses += len(relation)
        if self.annotate:
            node.actual_rows = len(rids)
            node.actual_accesses = len(relation)
        return [{relation.name: (rid, relation.get(rid))} for rid in rids]

    def _search_op(self, tree: Any, op: str, window: Rect,
                   relation: Relation, column: str,
                   stats: Optional[SearchStats] = None) -> list[RowId]:
        """Translate a spatial operator into R-tree searches + refinement."""
        # Both in-memory RTree and DiskSpatialIndex accept the stats
        # recorder; disk trees report page touches through it.
        if op == "covered-by":
            rids = tree.search_within(window, stats=stats)
        elif op == "intersecting":
            rids = tree.search(window, stats=stats)
        elif op == "overlapping":
            rids = [rid for rid in tree.search(window, stats=stats)
                    if mbr_of_value(relation.get(rid)[column])
                    .overlaps_interior(window)]
        elif op == "covering":
            rids = [rid for rid in tree.search(window, stats=stats)
                    if mbr_of_value(relation.get(rid)[column])
                    .contains(window)]
        elif op == "disjoined":
            hit = set(tree.search(window, stats=stats))
            rids = [rid for rid, _row in relation.rows() if rid not in hit]
        else:  # pragma: no cover - the parser validates operator names
            raise PsqlSemanticError(f"unknown spatial operator {op!r}")
        return rids

    # -- case 2: juxtaposition ("geographic join") --------------------------------------

    def _juxtaposition(self, node: PlanNode) -> list[Binding]:
        name_l, name_r = node.props["relations"]
        col_l, col_r = node.props["columns"]
        pic_l, pic_r = node.props["pictures"]
        op = node.props["op"]
        pushed = node.props.get("pushed", [])
        left = self._join_side(name_l, pushed)
        right = self._join_side(name_r, pushed)
        tree_l = self.db.picture(pic_l).index(name_l, col_l)
        tree_r = self.db.picture(pic_r).index(name_r, col_r)
        stats = JoinStats() if self.measure else None

        complement = node.props["strategy"] == "lockstep-complement"
        if complement:
            # Complement of the intersecting join: no lockstep pruning is
            # possible, so qualify every non-intersecting pair — of the
            # rows the pushed conjuncts leave on each side.
            intersecting = set(spatial_join(tree_l, tree_r, Rect.intersects,
                                            stats=stats))
            scan_l, scan_r = left.scan(), right.scan()
            rids_r = _pairable(scan_r, scan_l)
            pairs = [(ra, rb)
                     for ra in _pairable(scan_l, scan_r) for rb in rids_r
                     if (ra, rb) not in intersecting]
        else:
            predicate = OPERATORS[op]
            if node.props["strategy"] == "nested":
                if node.props["outer"] == "left":
                    pairs = nested_window_join(tree_l, tree_r, predicate,
                                               stats=stats)
                else:
                    flipped = OPERATORS[_FLIP.get(op, op)]
                    pairs = [(ra, rb) for rb, ra in
                             nested_window_join(tree_r, tree_l, flipped,
                                                stats=stats)]
            else:
                pairs = spatial_join(tree_l, tree_r, predicate,
                                     stats=stats)
        rows_l, rows_r = left.rows, right.rows
        if pushed:
            verdicts_l, verdicts_r = left.verdicts, right.verdicts
            pairs = [(ra, rb) for ra, rb in pairs
                     if min(verdicts_l[ra], verdicts_r[rb])[1]]
        if not complement:
            pairs = [(ra, rb) for ra, rb in pairs
                     if self._refine(op, rows_l[ra][col_l],
                                     rows_r[rb][col_r])]
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.juxtaposition")
            reg.bump("psql.at.rows_out", len(pairs))
            reg.trace("psql.plan", path="juxtaposition",
                      relations=[name_l, name_r], op=op,
                      strategy=node.props["strategy"], pairs=len(pairs))
        if stats is not None:
            self.accesses += stats.nodes_accessed
        if self.annotate:
            node.actual_rows = len(pairs)
            if stats is not None:
                node.actual_accesses = stats.nodes_accessed
        return [{name_l: (ra, rows_l[ra]), name_r: (rb, rows_r[rb])}
                for ra, rb in pairs]

    def _join_side(self, name: str,
                   pushed: list[tuple[str, ast.Comparison]]) -> "_JoinSide":
        tests = [(position, self._compile_condition(cond))
                 for position, (side, cond) in enumerate(pushed)
                 if side == name]
        return _JoinSide(self.relations[name], tests, len(pushed))

    # -- case 3: nested mapping -------------------------------------------------------

    def _nested_mapping(self, node: PlanNode) -> list[Binding]:
        inner_plan: Plan = node.props["_inner_plan"]
        inner_exec = _Execution(self.session, inner_plan.query,
                                plan=inner_plan, annotate=self.annotate,
                                measure=self.measure)
        inner = inner_exec.run()
        if self.measure:
            self.accesses += inner_exec.accesses
        inner_locs = _single_pictorial_column(inner, inner_plan.query,
                                              self.db)
        relation = self.relations[node.props["relation"]]
        column = node.props["column"]
        op = node.props["op"]
        tree = self.db.picture(node.props["picture"]).index(relation.name,
                                                            column)
        stats = SearchStats() if self.measure else None
        rids: set[RowId] = set()
        for value in inner_locs:
            window = mbr_of_value(value)
            for rid in self._search_op(tree, op, window, relation, column,
                                       stats=stats):
                if self._refine(op, relation.get(rid)[column], value):
                    rids.add(rid)
        if obs.ENABLED:
            reg = obs.active()
            reg.bump("psql.plan.nested_mapping")
            reg.bump("psql.at.rows_out", len(rids))
            reg.trace("psql.plan", path="nested-mapping",
                      relation=relation.name, op=op,
                      inner_locations=len(inner_locs), rows=len(rids))
        if stats is not None and stats.nodes_visited:
            self.accesses += stats.nodes_visited
        if self.annotate:
            node.actual_rows = len(rids)
            if stats is not None and stats.nodes_visited:
                node.actual_accesses = stats.nodes_visited
        return [{relation.name: (rid, relation.get(rid))}
                for rid in sorted(rids)]

    # -- refinement beyond MBRs ----------------------------------------------------------

    @staticmethod
    def _refine(op: str, left_value: Any, right_value: Any) -> bool:
        """Exact region tests where geometry allows; MBR semantics otherwise."""
        if op == "covered-by" and isinstance(right_value, Region):
            if isinstance(left_value, Point):
                return right_value.contains_point(left_value)
            return right_value.contains_rect(mbr_of_value(left_value))
        if op == "covering" and isinstance(left_value, Region):
            if isinstance(right_value, Point):
                return left_value.contains_point(right_value)
            return left_value.contains_rect(mbr_of_value(right_value))
        return True

    # -- helpers ------------------------------------------------------------------------

    def _cross_product(self, names: Sequence[str]) -> list[Binding]:
        bindings: list[Binding] = [{}]
        return self._extend_cross(bindings, names)

    def _extend_cross(self, bindings: list[Binding],
                      names: Iterable[str]) -> list[Binding]:
        for name in names:
            relation = self.relations[name]
            bindings = [{**b, name: (rid, row)}
                        for b in bindings for rid, row in relation.rows()]
        return bindings

    # -- where-clause and select-list compilation ---------------------------------

    def _compile_condition(self, cond: ast.Condition) -> Evaluator:
        """Compile a where-clause (or one conjunct) into a closure.

        Column refs resolve against the from-clause schema here, once.
        What cannot be resolved — an unknown or ambiguous column, an
        unknown function — compiles to a closure that raises the
        semantic error when *called*, so a query whose access path
        yields no rows still returns an empty result.
        """
        if isinstance(cond, (ast.And, ast.Or)):
            left = self._compile_condition(cond.left)
            right = self._compile_condition(cond.right)
            if isinstance(cond, ast.And):
                return lambda b: left(b) and right(b)
            return lambda b: left(b) or right(b)
        if isinstance(cond, ast.Not):
            operand = self._compile_condition(cond.operand)
            return lambda b: not operand(b)
        assert isinstance(cond, ast.Comparison)
        return _comparison(cond.op, self._compile_expression(cond.left),
                           self._compile_expression(cond.right))

    def _compile_expression(self, expr: ast.Expression) -> Evaluator:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda _b: value
        if isinstance(expr, ast.ColumnRef):
            return self._compile_column(expr)
        if isinstance(expr, ast.FunctionCall):
            try:
                fn = self.session.functions.lookup(expr.name)
            except PsqlSemanticError as exc:
                return _raising(str(exc))
            args = [self._compile_expression(a) for a in expr.args]
            return lambda b: fn(*[arg(b) for arg in args])
        return _raising(f"cannot evaluate {expr!r}")

    def _compile_column(self, ref: ast.ColumnRef) -> Evaluator:
        try:
            name = resolve_column(ref, self.relations)
        except PsqlSemanticError as exc:
            return _raising(str(exc))
        column = ref.column
        return lambda b: b[name][1][column]

    # -- projection -------------------------------------------------------------------

    def _project(self, bindings: list[Binding]) -> QueryResult:
        items = self.items
        aggregate_flags = [
            isinstance(expr, ast.FunctionCall)
            and self.session.functions.is_aggregate(expr.name)
            for _label, expr in items]
        if any(aggregate_flags):
            return self._project_grouped(items, aggregate_flags, bindings)
        columns = tuple(label for label, _expr in items)
        result = QueryResult(columns=columns, window=self.window)
        select = self.select
        for binding in bindings:
            row = tuple([value(binding) for value in select])
            result.rows.append(row)
            self._collect_pictorial(result, binding, row, columns)
        return result

    def _project_grouped(self, items: list[tuple[str, ast.Expression]],
                         aggregate_flags: list[bool],
                         bindings: list[Binding]) -> QueryResult:
        """Aggregate projection (Section 2.1's set-valued functions).

        When the select list contains aggregates, the plain columns act
        as grouping keys and each aggregate is evaluated over its
        argument's values across the group — e.g.
        ``select hwy-name, northest(loc) from highways`` yields the
        northernmost coordinate of each whole highway.
        """
        for (label, expr), is_agg in zip(items, aggregate_flags):
            if is_agg:
                assert isinstance(expr, ast.FunctionCall)
                if len(expr.args) != 1:
                    raise PsqlSemanticError(
                        f"aggregate {expr.name}() takes exactly one "
                        f"argument")
            elif not isinstance(expr, ast.ColumnRef):
                raise PsqlSemanticError(
                    f"select item {label!r} must be a plain column when "
                    f"aggregates are present (it becomes the group key)")

        keys = [value for value, is_agg in zip(self.select, aggregate_flags)
                if not is_agg]
        arguments = [self._compile_expression(expr.args[0]) if is_agg
                     else None
                     for (_label, expr), is_agg in zip(items, aggregate_flags)]
        groups: dict[tuple, list[Binding]] = {}
        for binding in bindings:
            key = tuple([value(binding) for value in keys])
            groups.setdefault(key, []).append(binding)

        columns = tuple(label for label, _expr in items)
        result = QueryResult(columns=columns, window=self.window)
        for key, members in groups.items():
            key_iter = iter(key)
            row_values = []
            for (label, expr), argument in zip(items, arguments):
                if argument is not None:
                    assert isinstance(expr, ast.FunctionCall)
                    fn = self.session.functions.lookup_aggregate(expr.name)
                    values = [argument(b) for b in members]
                    row_values.append(fn(values))
                else:
                    row_values.append(next(key_iter))
            row = tuple(row_values)
            result.rows.append(row)
            self._collect_pictorial(result, members[0], row, columns)
        return result

    def _expand_select(self) -> list[tuple[str, ast.Expression]]:
        multi = len(self.query.relations) > 1
        items: list[tuple[str, ast.Expression]] = []
        for sel in self.query.select:
            if isinstance(sel, ast.Star):
                for name in self.query.relations:
                    for col in self.relations[name].columns:
                        label = f"{name}.{col.name}" if multi else col.name
                        items.append((label,
                                      ast.ColumnRef(column=col.name,
                                                    relation=name)))
            elif isinstance(sel, ast.ColumnRef):
                items.append((str(sel), sel))
            else:
                items.append((str(sel), sel))
        return items

    def _collect_pictorial(self, result: QueryResult, binding: Binding,
                           row: tuple[Any, ...],
                           columns: tuple[str, ...]) -> None:
        """Send selected geometries to the graphical output channel."""
        label = _row_label(row, columns)
        for value in row:
            if isinstance(value, (Point, Segment, Region, Rect)):
                result.pictorial.append(
                    PictorialObject(label=label, geometry=value))


def _window_op(op: str, mbr: Rect, window: Rect) -> bool:
    """The scan-side twin of ``_search_op``: same MBR semantics, no tree."""
    if op == "covered-by":
        return window.contains(mbr)
    if op == "intersecting":
        return mbr.intersects(window)
    if op == "overlapping":
        return mbr.overlaps_interior(window)
    if op == "covering":
        return mbr.contains(window)
    if op == "disjoined":
        return not mbr.intersects(window)
    raise PsqlSemanticError(f"unknown spatial operator {op!r}")


def _row_label(row: tuple[Any, ...], columns: tuple[str, ...]) -> str:
    for value in row:
        if isinstance(value, str):
            return value
    return "(unnamed)" if not columns else str(row[0])


_COMPARATORS = {"=": operator.eq, "<>": operator.ne, ">": operator.gt,
                "<": operator.lt, ">=": operator.ge, "<=": operator.le}


def _comparison(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    """Compile ``left <op> right``: both operands, then the test."""
    test = _COMPARATORS.get(op)

    def compare(binding: Binding) -> bool:
        lhs = left(binding)
        rhs = right(binding)
        if test is None:
            raise PsqlSemanticError(f"unknown comparison operator {op!r}")
        try:
            return bool(test(lhs, rhs))
        except TypeError as exc:
            raise PsqlSemanticError(
                f"cannot compare {type(lhs).__name__} with "
                f"{type(rhs).__name__} using {op!r}") from exc

    return compare


def _raising(message: str) -> Evaluator:
    """An evaluator that raises ``PsqlSemanticError(message)`` when called."""
    def fail(_binding: Binding) -> Any:
        raise PsqlSemanticError(message)

    return fail


class _JoinSide:
    """One relation of a spatial join, with the where conjuncts pushed to it.

    Rows are fetched once per execution.  A row's *verdict* runs the
    side's pushed conjuncts in where order and stops at the first that
    does not hold: ``(position, False)`` when it is false,
    ``(position, True)`` when it raises — the row is kept and the full
    where re-check raises the same error again — and ``(len(pushed),
    True)`` when all hold.  Each pushed conjunct reads one side only, so
    the first conjunct a *pair* fails is the earlier of its rows' two —
    ``min(verdict_l, verdict_r)`` — and the pair is dropped exactly when
    that one is false, i.e. when the full where would have returned
    false before evaluating anything that raises.
    """

    def __init__(self, relation: Relation,
                 tests: list[tuple[int, Evaluator]], npushed: int):
        self.relation = relation
        #: rid -> row and rid -> verdict, each computed on first lookup
        self.rows = _Memo(relation.get)
        self.verdicts = _Memo(_judge(relation.name, self.rows, tests,
                                     (npushed, True)))

    def scan(self) -> list[tuple[RowId, tuple[int, bool]]]:
        """Every live row's verdict, in heap order."""
        out = []
        for rid, row in self.relation.rows():
            self.rows[rid] = row
            out.append((rid, self.verdicts[rid]))
        return out


def _judge(name: str, rows: dict[RowId, dict[str, Any]],
           tests: list[tuple[int, Evaluator]], passed: tuple[int, bool],
           ) -> Callable[[RowId], tuple[int, bool]]:
    """The verdict function of one join side (see :class:`_JoinSide`)."""
    def verdict(rid: RowId) -> tuple[int, bool]:
        binding = {name: (rid, rows[rid])}
        for position, test in tests:
            try:
                if not test(binding):
                    return position, False
            except Exception:  # noqa: BLE001 - the re-check raises it
                return position, True
        return passed

    return verdict


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``."""

    def __init__(self, compute: Callable[[Any], Any]):
        super().__init__()
        self.compute = compute

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.compute(key)
        return value


def _pairable(rows: list[tuple[RowId, tuple[int, bool]]],
              others: list[tuple[RowId, tuple[int, bool]]]) -> list[RowId]:
    """The scanned rows that may survive the pushed conjuncts in a pair.

    A row false at a position before every position where some row of
    the other side stops without being false rejects all of its pairs.
    """
    horizon = min((position for _rid, (position, kept) in others if kept),
                  default=0)
    return [rid for rid, (position, kept) in rows
            if kept or position > horizon]


def _single_pictorial_column(result: QueryResult,
                             query: Optional[ast.Query] = None,
                             db: Optional[Database] = None) -> list[Any]:
    """The pictorial values an inner (nested) mapping produced.

    The inner query must expose exactly one pictorial column; that column
    becomes the location binding of the outer mapping.  With result rows
    the column is found by inspecting the values; an *empty* inner result
    instead resolves the select list statically against the schema (when
    *query* and *db* are given) — a legitimately empty inner mapping
    yields an empty location set, it is not a semantic error.
    """
    pictorial_indexes = set()
    for row in result.rows:
        for i, value in enumerate(row):
            if isinstance(value, (Point, Segment, Region, Rect)):
                pictorial_indexes.add(i)
    if not pictorial_indexes:
        if not result.rows:
            if (query is None or db is None
                    or _static_pictorial_count(query, db) != 0):
                return []
        raise PsqlSemanticError(
            "the nested mapping selects no pictorial column to bind")
    if len(pictorial_indexes) > 1:
        raise PsqlSemanticError(
            "the nested mapping selects more than one pictorial column")
    idx = pictorial_indexes.pop()
    return [row[idx] for row in result.rows]


def _static_pictorial_count(query: ast.Query,
                            db: Database) -> Optional[int]:
    """How many pictorial columns the select list provably yields.

    ``None`` when the answer cannot be determined from the schema alone
    (a function call may compute a geometry at runtime).
    """
    count = 0
    for sel in query.select:
        if isinstance(sel, ast.Star):
            for name in query.relations:
                if db.has_relation(name):
                    count += len(list(db.relation(name)
                                      .pictorial_columns()))
        elif isinstance(sel, ast.ColumnRef):
            names = ([sel.relation] if sel.relation is not None
                     else list(query.relations))
            for name in names:
                if db.has_relation(name):
                    relation = db.relation(name)
                    if relation.has_column(sel.column) and \
                            relation.column(sel.column).is_pictorial:
                        count += 1
                        break
        else:  # a function call: value type unknown until runtime
            return None
    return count
