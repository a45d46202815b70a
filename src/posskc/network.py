"""Min-based possibilistic networks: data model, PNET text format, and
the brute-force oracle used as ground truth everywhere.

A network is a DAG of finite-domain variables, each carrying a
conditional possibility table normalized so that for every parent
configuration the maximum entry over the variable's own values is 1.
The joint possibility of a complete world is the minimum of the selected
table entries (the min-based chain rule), and the oracle computes event
possibilities by explicit maximization over worlds.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, TypeVar

from .degrees import SCALE, Degree, ONE, ZERO, min_condition, parse_degree
from .errors import DegreeError, FormatError, NetworkValidationError, QueryError, SizeGuardError

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

World = dict  # variable name -> domain value, total over the network
EventTerm = Mapping  # variable name -> domain value, partial (possibly empty)

CptKey = tuple  # (own value, tuple of parent values in parents order)
T = TypeVar("T")

ORACLE_WORLD_GUARD = 1 << 20
"""oracle_possibility enumerates worlds; it refuses beyond this many."""


@dataclass(frozen=True, slots=True)
class NetVariable:
    """A finite-domain network variable with an ordered domain."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise NetworkValidationError(f"bad variable name {self.name!r}")
        if len(self.domain) < 2:
            raise NetworkValidationError(f"variable {self.name} needs at least 2 values")
        if len(set(self.domain)) != len(self.domain):
            raise NetworkValidationError(f"variable {self.name} has duplicate values")
        for v in self.domain:
            if not _IDENT_RE.match(v):
                raise NetworkValidationError(f"bad value name {v!r} for variable {self.name}")


class PossNetwork:
    """A validated min-based possibilistic network, immutable apart from
    two memos that live as long as the network: ``pkb.compile_base``'s and
    ``encodings.instance_map``'s.  Each table lists its entries in table
    order: parent configurations in file order, then values in domain
    order (``_validate`` reorders one given in another order)."""

    def __init__(
        self,
        name: str,
        variables: list[NetVariable] | tuple[NetVariable, ...],
        parents: Mapping[str, tuple[str, ...]],
        cpt: Mapping[str, Mapping[CptKey, Degree]],
    ):
        self.name = name
        self.variables: tuple[NetVariable, ...] = tuple(variables)
        self._by_name = {v.name: v for v in self.variables}
        for what, table in (("parents", parents), ("cpt", cpt)):
            stray = sorted(set(table) - self._by_name.keys())
            if stray:
                raise NetworkValidationError(f"{what} for unknown variable {stray[0]!r}")
        self.parents: dict[str, tuple[str, ...]] = {
            v.name: tuple(parents.get(v.name, ())) for v in self.variables
        }
        self.cpt: dict[str, dict[CptKey, Degree]] = {
            v.name: dict(cpt.get(v.name, {})) for v in self.variables
        }
        self._validate(name)
        self.compiled_base = None  # pkb.compile_base's memo
        self.instances = None  # encodings.instance_map's memo

    def variable(self, name: str) -> NetVariable:
        try:
            return self._by_name[name]
        except KeyError:
            raise NetworkValidationError(f"unknown variable {name!r}") from None

    def domain_of(self, name: str) -> tuple[str, ...]:
        return self.variable(name).domain

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def parent_configs(self, name: str) -> Iterator[tuple[str, ...]]:
        """Parent-value tuples in file order, first parent varies fastest:
        the tuples the table's keys hold, read off every column's first
        key, since each table lists its entries in table order."""
        table = self.cpt[name]
        for _, cfg in itertools.islice(table, 0, None, len(self._by_name[name].domain)):
            yield cfg

    def _validate(self, name: str) -> None:
        if not _IDENT_RE.match(name):
            raise NetworkValidationError(f"bad network name {name!r}")
        if len(self._by_name) != len(self.variables):
            seen: set[str] = set()
            for v in self.variables:
                if v.name in seen:
                    raise NetworkValidationError(f"duplicate variable {v.name}")
                seen.add(v.name)
        for child, ps in self.parents.items():
            if len(set(ps)) != len(ps):
                raise NetworkValidationError(f"duplicate parent in {child}'s parent list")
            for p in ps:
                if p not in self._by_name:
                    raise NetworkValidationError(f"unknown parent {p!r} of {child}")
                if p == child:
                    raise NetworkValidationError(f"variable {child} cannot be its own parent")
        self._check_acyclic()
        for v in self.variables:
            table = self.cpt[v.name]
            doms = [self._by_name[p].domain for p in self.parents[v.name]]
            columns = [tuple(reversed(rev)) for rev in itertools.product(*reversed(doms))]
            order = [(val, cfg) for cfg in columns for val in v.domain]
            if list(table) != order:
                items = dict(zip(table, table.items()))
                if len(items) == len(order) and all(map(items.__contains__, order)):
                    # the same entries in another order: keep them, keys and
                    # all, in table order
                    self.cpt[v.name] = table = dict(map(items.__getitem__, order))
                else:
                    expected = set(order)
                    extra = sorted(table.keys() - expected)
                    val, cfg = (extra or sorted(expected - table.keys()))[0]
                    raise NetworkValidationError(
                        f"{'unexpected' if extra else 'missing'} CPT entry for {v.name}: "
                        f"value {val!r} under {cfg!r}"
                    )
            for cfg in columns:
                col_max = max([table[(val, cfg)].num for val in v.domain])
                if col_max != SCALE:
                    where = f" under {' '.join(cfg)}" if cfg else ""
                    raise NetworkValidationError(
                        f"normalization violation in cpt {v.name}{where}: "
                        f"max over values is {Degree(col_max)}, expected 1"
                    )

    def _check_acyclic(self) -> None:
        indeg = {v.name: len(self.parents[v.name]) for v in self.variables}
        children: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for child, ps in self.parents.items():
            for p in ps:
                children[p].append(child)
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            n = queue.pop()
            seen += 1
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if seen != len(self.variables):
            cyclic = sorted(n for n, d in indeg.items() if d > 0)
            raise NetworkValidationError(f"parent relation has a cycle through {cyclic}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PossNetwork):
            return NotImplemented
        return (
            self.name == other.name
            and self.variables == other.variables
            and self.parents == other.parents
            and self.cpt == other.cpt
        )

    def __repr__(self) -> str:
        return f"PossNetwork({self.name!r}, {len(self.variables)} variables)"


def check_event(net: PossNetwork, term: EventTerm) -> None:
    """Validate an event term against the network's variables and domains."""
    for var, val in term.items():
        if var not in net._by_name:
            raise QueryError(f"unknown variable {var!r}")
        if val not in net.domain_of(var):
            raise QueryError(f"unknown value {val!r} for variable {var}")


def enumerate_worlds(net: PossNetwork) -> Iterator[World]:
    """Every complete world exactly once, lexicographic in declaration and
    domain order.  Cost is the product of domain sizes; desk scale only."""
    names = net.var_names
    for combo in itertools.product(*(net.domain_of(n) for n in names)):
        yield dict(zip(names, combo))


def chain_rule_joint(net: PossNetwork, w: World) -> Degree:
    """Joint possibility of a complete world: min of selected CPT entries."""
    best = ONE
    for v in net.variables:
        cfg = tuple(w[p] for p in net.parents[v.name])
        d = net.cpt[v.name][(w[v.name], cfg)]
        if d < best:
            best = d
    return best


def world_consistent(w: World, e: EventTerm) -> bool:
    return all(w[var] == val for var, val in e.items())


def oracle_possibility(net: PossNetwork, e: EventTerm) -> Degree:
    """Pi(e) by explicit maximization of the chain rule over worlds.

    Raises SizeGuardError when the network has more than
    ORACLE_WORLD_GUARD worlds.
    """
    check_event(net, e)
    if math.prod(len(v.domain) for v in net.variables) > ORACLE_WORLD_GUARD:
        raise SizeGuardError(f"oracle enumeration beyond {ORACLE_WORLD_GUARD} worlds")
    best = ZERO
    for w in enumerate_worlds(net):
        if world_consistent(w, e):
            d = chain_rule_joint(net, w)
            if d > best:
                best = d
                if best == ONE:
                    break
    return best


def conflicts(x: EventTerm, e: EventTerm) -> bool:
    """Whether x and e assign some variable two different values."""
    return any(var in e and e[var] != val for var, val in x.items())


class Conditional(NamedTuple):
    """Pi(x|e) with the two marginals it was conditioned from."""

    degree: Degree
    joint: Degree
    evidence: Degree


def conditional(
    net: PossNetwork,
    possibility: Callable[[EventTerm], Degree],
    x: EventTerm,
    e: EventTerm,
    evidence: Callable[[EventTerm], Degree] | None = None,
) -> Conditional:
    """Pi(x|e) by min-conditioning Pi(x, e) on Pi(e).

    Both terms are checked first, each once.  Then Pi(e) is asked of
    ``evidence`` (``possibility`` when it is None), and then the joint of
    ``possibility``; a pipeline passes its evidence memo as ``evidence``,
    so its joint can start from the memoised pass.  Conflicting assignments
    between x and e make the joint impossible (degree 0, without asking)
    rather than an error.
    """
    check_event(net, x)
    check_event(net, e)
    given = (evidence or possibility)(e)
    joint = ZERO if conflicts(x, e) else possibility({**e, **x})
    return Conditional(min_condition(joint, given), joint, given)


class EvidenceMemo:
    """A pipeline's result for the last evidence term it was asked.

    Compile-once callers ask one evidence term with several targets in a
    row, so the evidence half of a query (the Pi(e) pass, or pkb's
    evidence stratum) is computed once per term.  The key is the term's
    items, frozen at the call, so a caller may change its dict
    afterwards; key and value are one tuple, replaced whole.  Callers
    check the term first, so an invalid one raises QueryError and leaves
    the memo as it was.
    """

    __slots__ = ("entry",)

    def __init__(self) -> None:
        self.entry: tuple = (None, None)

    def __call__(self, e: EventTerm, compute: Callable[[EventTerm], T]) -> T:
        key = frozenset(e.items())
        held, value = self.entry
        if held != key:
            value = compute(e)
            self.entry = (key, value)
        return value


def oracle_conditional(net: PossNetwork, x: EventTerm, e: EventTerm) -> Degree:
    """Pi(x|e) by min-conditioning the oracle marginals."""
    return conditional(net, lambda term: oracle_possibility(net, term), x, e).degree


def parse_network(text: str) -> PossNetwork:
    """Parse the PNET line-oriented text format.

    Layout: a ``network <name>`` line, then ``var <name> <v1> <v2> ...``
    declarations, optional ``parents <var> <p1> ...`` lines (roots omit
    theirs), and one ``cpt <var>`` block per variable whose entries read
    ``value | pval1 pval2 ... : degree`` (root entries omit the bar).
    ``#`` starts a comment; parent values follow the declaration order.
    Equal value strings, equal parent-value tuples and equal degree texts
    are one object across the parsed network, and each distinct degree
    text is parsed once.
    """
    share = {}.setdefault  # a str never equals a tuple, so one dict serves both
    degrees: dict[str, Degree] = {}  # degree text -> its Degree
    entry_keys: dict[str, CptKey] = {}  # text before an entry's ':' -> its table key
    name: str | None = None
    variables: list[NetVariable] = []
    var_names: set[str] = set()
    parents: dict[str, tuple[str, ...]] = {}
    cpt: dict[str, dict[CptKey, Degree]] = {}
    current_cpt: str | None = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "network":
            if name is not None:
                raise FormatError("duplicate 'network' line", ln)
            if len(tokens) != 2:
                raise FormatError("expected 'network <name>'", ln)
            name = tokens[1]
            current_cpt = None
        elif head == "var":
            if len(tokens) < 4:
                raise FormatError("expected 'var <name> <v1> <v2> ...' with at least 2 values", ln)
            current_cpt = None
            vname = tokens[1]
            if vname in var_names:
                raise NetworkValidationError(f"duplicate variable {vname} (line {ln})")
            try:
                variables.append(NetVariable(vname, tuple(share(t, t) for t in tokens[2:])))
            except NetworkValidationError as exc:
                raise FormatError(str(exc), ln) from exc
            var_names.add(vname)
        elif head == "parents":
            if len(tokens) < 3:
                raise FormatError("expected 'parents <var> <p1> ...'", ln)
            current_cpt = None
            child = tokens[1]
            if child not in var_names:
                raise NetworkValidationError(f"parents for unknown variable {child!r} (line {ln})")
            if child in parents:
                raise NetworkValidationError(f"duplicate parents line for {child} (line {ln})")
            parents[child] = tuple(tokens[2:])
        elif head == "cpt":
            if len(tokens) != 2:
                raise FormatError("expected 'cpt <var>'", ln)
            target = tokens[1]
            if target not in var_names:
                raise NetworkValidationError(f"cpt for unknown variable {target!r} (line {ln})")
            if target in cpt:
                raise NetworkValidationError(f"duplicate cpt block for {target} (line {ln})")
            cpt[target] = {}
            current_cpt = target
        else:
            if current_cpt is None:
                raise FormatError(f"unexpected line {line!r} (no open cpt block)", ln)
            if ":" not in line:
                raise FormatError(f"cpt entry missing ':' separator: {line!r}", ln)
            lhs, _, rhs = line.rpartition(":")
            rhs = rhs.strip()
            degree = degrees.get(rhs)
            if degree is None:
                try:
                    degree = degrees[rhs] = parse_degree(rhs)
                except DegreeError as exc:
                    raise FormatError(str(exc), ln) from exc
            key = entry_keys.get(lhs)
            if key is None:
                own, bar, par_part = lhs.strip().partition("|")
                own = own.strip()
                if not own or len(own.split()) != 1:
                    raise FormatError(f"cpt entry needs exactly one own value: {line!r}", ln)
                cfg = tuple(share(t, t) for t in par_part.split()) if bar else ()
                key = entry_keys[lhs] = (share(own, own), share(cfg, cfg))
            table = cpt[current_cpt]
            if key in table:
                own, cfg = key
                raise NetworkValidationError(
                    f"duplicate CPT entry for {current_cpt}: {own} | {' '.join(cfg)} (line {ln})"
                )
            table[key] = degree

    if name is None:
        raise FormatError("missing 'network' line")
    return PossNetwork(name, variables, parents, cpt)


def serialize_network(net: PossNetwork) -> str:
    """Serialize to PNET text; parse(serialize(net)) == net byte-stably."""
    out = [f"network {net.name}"]
    for v in net.variables:
        out.append("var " + v.name + " " + " ".join(v.domain))
    for v in net.variables:
        if net.parents[v.name]:
            out.append("parents " + v.name + " " + " ".join(net.parents[v.name]))
    for v in net.variables:
        out.append("cpt " + v.name)
        for (val, cfg), d in net.cpt[v.name].items():  # in table order
            out.append(f"{val} | {' '.join(cfg)} : {d}" if cfg else f"{val} : {d}")
    return "\n".join(out) + "\n"
