"""Role-tagged propositional CNF and DIMACS interchange.

Variables carry a semantic role (network-instance proposition, evidence
indicator, weighted parameter, or stratum level variable) directly in the
formula so that the weight map needed for circuit evaluation, and the
level-first decision order of a stratified base (``stratified_levels``),
can be rebuilt from a serialized encoding alone.  Literals are plain signed
integers: ``+v`` is the positive literal of variable ``v``, ``-v`` its
negation.

A ``CnfFormula`` stores plain values: one role (or None) per variable and
one canonical literal tuple per clause (sorted by variable, -v before
+v), checked as ``add_clause`` stores it.  Those values (``roles``,
``clause_literals``) are the whole encoding: the encoders return the
formula itself, and the pipelines, the compiler, the level readers and
``to_dimacs`` read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .degrees import Degree, parse_degree
from .errors import FormatError


@dataclass(frozen=True, slots=True)
class Instance:
    """Proposition standing for a network variable taking a value."""

    var: str
    value: str


@dataclass(frozen=True, slots=True)
class Indicator:
    """Evidence indicator: switches a network value on or off per query."""

    var: str
    value: str


@dataclass(frozen=True, slots=True)
class Parameter:
    """Weighted parameter carrying a possibility degree into the encoding.

    ``owner`` scopes the sharing: a network-variable name when parameters
    are shared per distribution, or an entry key when one parameter
    stands for a single table entry.
    """

    owner: str
    degree: Degree


@dataclass(frozen=True, slots=True)
class Level:
    """Stratum variable tagging all base formulas of one weight."""

    rank: int
    weight: Degree


def stratified(weighted: int, levels: int) -> bool:
    """The stratification rule, on a base's weighted-clause and level
    counts: its levels are stratified when the weighted clauses average at
    least two per level.

    Below two per level, most level variables tag a single clause and act
    as its private relaxation literal, so a ladder through them or an
    order that decides them first would only join otherwise independent
    components."""
    return weighted >= 2 * levels


def stratified_levels(f: CnfFormula) -> frozenset[int]:
    """Every ``Level`` variable of ``f`` when ``stratified`` holds for its
    weighted clauses (a positive level literal and no negative one, so not
    the ladder) and levels; none otherwise."""
    levels = frozenset(vid for vid, role in enumerate(f.roles, start=1) if isinstance(role, Level))
    if not levels:
        return levels
    negated = {-v for v in levels}
    weighted = sum(
        1 for c in f.clause_literals if not levels.isdisjoint(c) and negated.isdisjoint(c)
    )
    return levels if stratified(weighted, len(levels)) else frozenset()


Role = Union[Instance, Indicator, Parameter, Level]


def exactly_one(literals: list[int]) -> list[list[int]]:
    """Clauses forcing exactly one of ``literals`` true: all of them as one
    clause, then one clause per pair of their negations, in list order."""
    return [list(literals)] + [[-a, -b] for i, a in enumerate(literals) for b in literals[i + 1 :]]


class CnfFormula:
    """A clause set over a dense registry of role-tagged variables.

    Mutable while being built (new_var / add_clause); treated as frozen
    once handed to the compiler or serialized.
    """

    def __init__(self) -> None:
        self._roles: list[Role | None] = []
        self._clauses: list[tuple[int, ...]] = []

    @property
    def roles(self) -> tuple[Role | None, ...]:
        """Each variable's role, variable ``v``'s at index ``v - 1``."""
        return tuple(self._roles)

    @property
    def clause_literals(self) -> tuple[tuple[int, ...], ...]:
        """Each clause's canonical literal tuple, in insertion order."""
        return tuple(self._clauses)

    @property
    def num_vars(self) -> int:
        return len(self._roles)

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def new_var(self, role: Role | None = None) -> int:
        self._roles.append(role)
        return len(self._roles)

    def add_clause(self, literals: Iterable[int]) -> tuple[int, ...]:
        """Store a clause as its canonical literal tuple (repeats dropped,
        sorted by variable, -v before +v) and return it.  Raises ValueError,
        naming them so, on literal 0, an unregistered variable and a tautology."""
        # without a complementary pair, sorting by variable alone is canonical
        lits = sorted(set(literals), key=abs)
        n = len(self._roles)
        if lits and (not lits[0] or abs(lits[-1]) > n or len({abs(l) for l in lits}) < len(lits)):
            lits = sorted(sorted(lits), key=abs)  # by value, then stably by variable: 0 first
            if not lits[0]:
                raise ValueError("0 is not a literal")
            if abs(lits[-1]) > n:
                raise ValueError(f"literal {lits[-1]} names an unregistered variable")
            raise ValueError(f"tautological clause {tuple(lits)} not allowed in a formula")
        lits = tuple(lits)
        self._clauses.append(lits)
        return lits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self._roles == other._roles and self._clauses == other._clauses

    def __repr__(self) -> str:
        return f"CnfFormula(vars={self.num_vars}, clauses={self.num_clauses})"


def cnf_stats(f: CnfFormula) -> dict:
    return {"vars": f.num_vars, "clauses": f.num_clauses}


def _role_tokens(role: Role) -> list[str]:
    if isinstance(role, Instance):
        return ["instance", role.var, role.value]
    if isinstance(role, Indicator):
        return ["indicator", role.var, role.value]
    if isinstance(role, Parameter):
        return ["parameter", role.owner, str(role.degree)]
    if isinstance(role, Level):
        return ["level", str(role.rank), str(role.weight)]
    raise TypeError(f"unknown role {role!r}")


def _parse_role(tokens: list[str], line_no: int) -> Role:
    kind = tokens[0]
    try:
        if kind == "instance" and len(tokens) == 3:
            return Instance(tokens[1], tokens[2])
        if kind == "indicator" and len(tokens) == 3:
            return Indicator(tokens[1], tokens[2])
        if kind == "parameter" and len(tokens) == 3:
            return Parameter(tokens[1], parse_degree(tokens[2]))
        if kind == "level" and len(tokens) == 3:
            return Level(int(tokens[1]), parse_degree(tokens[2]))
    except ValueError as exc:
        raise FormatError(f"bad role annotation {' '.join(tokens)!r}: {exc}", line_no) from exc
    raise FormatError(f"bad role annotation {' '.join(tokens)!r}", line_no)


def to_dimacs(f: CnfFormula) -> str:
    """Serialize with role metadata in ``c var <id> <role> ...`` comments."""
    out = []
    for vid, role in enumerate(f.roles, start=1):
        if role is not None:
            out.append("c var " + str(vid) + " " + " ".join(_role_tokens(role)))
    out.append(f"p cnf {f.num_vars} {f.num_clauses}")
    for lits in f.clause_literals:
        out.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(out) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    roles: dict[int, tuple[Role, int]] = {}  # variable id -> (role, comment line)
    header: tuple[int, int] | None = None
    lit_tokens: list[tuple[str, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "var":
                try:
                    vid = int(parts[2])
                except ValueError:
                    vid = 0
                if vid < 1:
                    raise FormatError(f"bad variable id in role comment: {parts[2]!r}", ln)
                if vid in roles:
                    raise FormatError(f"second role comment for variable {vid}", ln)
                roles[vid] = (_parse_role(parts[3:], ln), ln)
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise FormatError(f"malformed header: {line!r}", ln)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise FormatError(f"malformed header: {line!r}", ln) from exc
            if header[0] < 0 or header[1] < 0:
                raise FormatError(f"malformed header: {line!r}", ln)
            continue
        if header is None:
            raise FormatError(f"clause before header: {line!r}", ln)
        for tok in line.split():
            lit_tokens.append((tok, ln))
    if header is None:
        raise FormatError("missing 'p cnf' header")
    n_vars, n_clauses = header
    f = CnfFormula()
    for vid in range(1, n_vars + 1):
        f.new_var(roles.pop(vid, (None, 0))[0])
    if roles:
        bad = min(roles)
        message = f"role comment for variable {bad} beyond declared {n_vars}"
        raise FormatError(message, roles[bad][1])
    current: list[int] = []
    for tok, ln in lit_tokens:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise FormatError(f"bad literal token {tok!r}", ln) from exc
        if lit == 0:
            try:
                f.add_clause(current)
            except ValueError as exc:
                raise FormatError(str(exc), ln) from exc
            current = []
        else:
            if not 1 <= abs(lit) <= n_vars:
                raise FormatError(f"literal {lit} beyond declared {n_vars} variables", ln)
            current.append(lit)
    if current:
        raise FormatError("last clause not terminated by 0")
    if f.num_clauses != n_clauses:
        raise FormatError(f"header declares {n_clauses} clauses, found {f.num_clauses}")
    return f
