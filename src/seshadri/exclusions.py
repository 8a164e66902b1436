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
from .lattice import DomainError, InvalidInput


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

    def digest(self) -> str:
        """Stable hash of the database contents, for cache keys: the first
        16 hex digits of the SHA-256 of its compact, key-sorted JSON.  The
        hash is computed here in Python (see _sha256_hex), so no command
        loads hashlib and OpenSSL's libcrypto with it."""
        import json

        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return _sha256_hex(canon.encode("utf-8"))[:16]


# SHA-256 (FIPS 180-4): the initial hash value and the round constants, the
# first 32 bits of the fractional parts of the square roots of the first 8
# primes and of the cube roots of the first 64 primes.
_SHA256_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)
_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)


def _sha256_hex(data: bytes) -> str:
    """SHA-256 of data as 64 lowercase hex digits.  Rotations are shifts
    whose bits above the 32nd are masked off after the xor."""
    mask = 0xFFFFFFFF
    size = len(data)
    data += b"\x80" + bytes((55 - size) % 64) + (8 * size).to_bytes(8, "big")
    h = _SHA256_H0
    for block in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(block, block + 64, 4)]
        for i in range(16, 64):
            x, y = w[i - 15], w[i - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)
        a, b, c, d, e, f, g, hh = h
        for k, wi in zip(_SHA256_K, w):
            s1 = ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)) & mask
            t1 = hh + s1 + ((e & f) ^ (~e & g)) + k + wi
            s0 = ((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)) & mask
            t2 = s0 + ((a & b) ^ (a & c) ^ (b & c))
            a, b, c, d, e, f, g, hh = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        h = tuple((u + v) & mask for u, v in zip(h, (a, b, c, d, e, f, g, hh)))
    return "".join(f"{u:08x}" for u in h)


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


def is_excluded(
    c: CandidateTriple,
    cfg: SpecializationConfig,
    db: ExclusionDb,
) -> ExclusionResult:
    """One-sided non-effectivity decision for a candidate class.

    Excluded when a database entry applies, or when the candidate's degree
    falls below the certified lower bound for the degree of any curve with
    its multiplicities.  Never claims effectiveness.  A uniform (k = 0)
    class under the default configuration gets that bound in closed form,
    equal to the walk's (see the effectivity module docstring).  Raises
    DomainError when cfg is the specialization of another n.
    """
    if c.n != cfg.n:
        raise DomainError(f"the specialization is configured for n = {cfg.n}, not n = {c.n}")
    source = db.ruling(c)
    if source is not None:
        return ExclusionResult(True, source)
    if c.k == 0 and cfg.is_default():
        bound = alpha_lb_closed(c.n, c.m, 0, cfg)
    else:
        bound = alpha_lower_bound(semiuniformize(c.n, c.m, c.k), cfg)
    if c.t < bound:
        return ExclusionResult(True, f"specialization-criterion(d={cfg.d},r={cfg.r})")
    return ExclusionResult(False, None)
