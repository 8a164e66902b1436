"""Provenance-tagged non-effectivity facts and the combined exclusion test.

Some candidate classes are ruled out not by the specialization engine but by
results imported from the literature.  Those rulings are plain data: each
entry names its source, and disabling a source removes every ruling it
contributed.  Nothing here ever claims a class *is* effective; the test is
one-sided.

Shipped defaults:

* CCMO: for n >= 10 there is no abnormal curve with k = 0 and m <= 20
  (Ciliberto-Cioffi-Miranda-Orecchia).
* Dumnicki: the same with m <= 42; shipped disabled because it postdates the
  reference tables this package reproduces.  Read as k = 0 only.
* unique-cubic: for n = 10, C(3,1,0) and C(6,2,-1) are impossible because
  the curve of degree 3m with nine general m-fold points is the unique
  (multiple of the) cubic through the nine points, and it misses the tenth.
* Miranda: C(79,25,0) is not the class of an effective divisor for n = 10
  (R. Miranda, personal communication, by a degeneration method this
  package deliberately does not implement).
"""
from __future__ import annotations

from collections import namedtuple

from .candidates import CandidateTriple
from .effectivity import SpecializationConfig, alpha_lb_closed, alpha_lower_bound, semiuniformize
from .lattice import InvalidInput


class UniformBound(namedtuple("UniformBound", "n_min m_max source")):
    """For n >= n_min, no abnormal class with k = 0 and m <= m_max exists."""

    __slots__ = ()
    kind = "uniform_bound"

    def applies(self, c: CandidateTriple) -> bool:
        return c.k == 0 and c.n >= self.n_min and c.m <= self.m_max


class ExplicitClass(namedtuple("ExplicitClass", "n t m k source")):
    """The specific class C(t, m, k) for n points is not effective."""

    __slots__ = ()
    kind = "explicit_class"

    def applies(self, c: CandidateTriple) -> bool:
        return (c.n, c.t, c.m, c.k) == (self.n, self.t, self.m, self.k)


Entry = UniformBound | ExplicitClass


class ExclusionDb(namedtuple("ExclusionDb", "entries enabled_sources")):
    """Immutable collection of exclusion entries with a source on/off switch."""

    __slots__ = ()

    def __new__(cls, entries: tuple[Entry, ...], enabled_sources: frozenset[str]) -> "ExclusionDb":
        for e in entries:
            if not e.source:
                raise InvalidInput("every exclusion entry needs a nonempty source")
        return super().__new__(cls, entries, enabled_sources)

    # _replace builds through _make, so both validate as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def with_sources(self, enable: tuple[str, ...] = (), disable: tuple[str, ...] = ()) -> "ExclusionDb":
        """Copy with these sources switched on and then these switched off.

        Raises InvalidInput for a name that no entry carries, so a misspelt
        source cannot silently leave a ruling on or off.
        """
        orphans = sorted((set(enable) | set(disable)) - {e.source for e in self.entries})
        if orphans:
            raise _invalid(f"no entry carries the source(s) {orphans}")
        sources = (self.enabled_sources | set(enable)) - set(disable)
        return ExclusionDb(self.entries, frozenset(sources))

    def ruling(self, c: CandidateTriple) -> str | None:
        """Source of the first enabled entry declaring c non-effective."""
        for e in self.entries:
            if e.source in self.enabled_sources and e.applies(c):
                return e.source
        return None

    def to_json_dict(self) -> dict:
        entries = [
            {"kind": e.kind, "source": e.source, **{f: getattr(e, f) for f in _ENTRY_KINDS[e.kind][1]}}
            for e in self.entries
        ]
        return {"entries": entries, "enabled_sources": sorted(self.enabled_sources)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: object) -> "ExclusionDb":
        """Decode a database, checked by hand against
        docs/exclusion_db.schema.json: required keys and no others, JSON
        integers with their minimums, nonempty unique source names.  An
        enabled source that no entry carries is rejected too, so a misspelt
        name cannot switch its rulings off silently.  Raises InvalidInput.
        """
        _check_keys(data, {"entries", "enabled_sources"}, "the top level")
        raw_entries, sources = data["entries"], data["enabled_sources"]
        for name, value in (("entries", raw_entries), ("enabled_sources", sources)):
            if not isinstance(value, list):
                raise _invalid(f"{name} must be a list")
        entries = tuple(_entry_from_json(raw, f"entries[{i}]") for i, raw in enumerate(raw_entries))
        for i, source in enumerate(sources):
            _check_source(source, f"enabled_sources[{i}]")
        if len(set(sources)) != len(sources):
            raise _invalid("enabled_sources has duplicates")
        orphans = sorted(set(sources) - {e.source for e in entries})
        if orphans:
            raise _invalid(f"no entry carries the enabled source(s) {orphans}")
        return cls(entries=entries, enabled_sources=frozenset(sources))

    @classmethod
    def from_json(cls, text: str) -> "ExclusionDb":
        import json

        return cls.from_json_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ExclusionDb":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


# kind -> entry type and its integer fields with their schema minimums
_ENTRY_KINDS: dict[str, tuple[type, dict[str, int | None]]] = {
    "uniform_bound": (UniformBound, {"n_min": 1, "m_max": 1}),
    "explicit_class": (ExplicitClass, {"n": 1, "t": 1, "m": 1, "k": None}),
}


def _invalid(msg: str) -> InvalidInput:
    return InvalidInput(f"exclusion database: {msg}")


def _check_keys(obj: object, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise _invalid(f"{where} must be a JSON object")
    missing = sorted(keys - obj.keys())
    if missing:
        raise _invalid(f"{where} lacks {', '.join(missing)}")
    extra = sorted(obj.keys() - keys)
    if extra:
        raise _invalid(f"{where} has unknown key(s) {', '.join(extra)}")


def _check_source(value: object, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise _invalid(f"{where} must be a nonempty string, got {value!r}")
    return value


def _entry_from_json(raw: object, where: str) -> Entry:
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in _ENTRY_KINDS:
        raise _invalid(f"{where} needs kind {' or '.join(_ENTRY_KINDS)}, got {kind!r}")
    entry_type, fields = _ENTRY_KINDS[kind]
    _check_keys(raw, {"kind", "source", *fields}, where)
    values = {}
    for name, minimum in fields.items():
        v = raw[name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise _invalid(f"{where}.{name} must be an integer, got {v!r}")
        if minimum is not None and v < minimum:
            raise _invalid(f"{where}.{name} must be >= {minimum}, got {v}")
        values[name] = v
    return entry_type(**values, source=_check_source(raw["source"], f"{where}.source"))


def default_db() -> ExclusionDb:
    entries: tuple[Entry, ...] = (
        UniformBound(n_min=10, m_max=20, source="CCMO"),
        UniformBound(n_min=10, m_max=42, source="Dumnicki"),
        ExplicitClass(n=10, t=3, m=1, k=0, source="unique-cubic"),
        ExplicitClass(n=10, t=6, m=2, k=-1, source="unique-cubic"),
        ExplicitClass(n=10, t=79, m=25, k=0, source="Miranda"),
    )
    return ExclusionDb(entries=entries, enabled_sources=frozenset({"CCMO", "unique-cubic", "Miranda"}))


class ExclusionResult(namedtuple("ExclusionResult", "excluded reason", defaults=(None,))):
    __slots__ = ()


def is_excluded(c: CandidateTriple, db: ExclusionDb) -> ExclusionResult:
    """One-sided non-effectivity decision for a candidate class.

    Excluded when a database entry applies, or when the candidate's degree
    falls below the certified lower bound for the degree of any curve with
    its multiplicities, under the default specialization of c.n.  Never
    claims effectiveness.  A uniform (k = 0) class gets that bound in closed
    form, equal to the walk's (see the effectivity module docstring).
    """
    source = db.ruling(c)
    if source is not None:
        return ExclusionResult(True, source)
    cfg = SpecializationConfig.default(c.n)
    if c.k == 0:
        bound = alpha_lb_closed(c.m, 0, cfg)
    else:
        bound = alpha_lower_bound(semiuniformize(c.n, c.m, c.k), cfg)
    if c.t < bound:
        return ExclusionResult(True, f"specialization-criterion(d={cfg.d},r={cfg.r})")
    return ExclusionResult(False, None)
