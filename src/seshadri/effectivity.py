"""One-sided non-effectivity certificates via specialization and unloading.

The engine specializes the n points onto an irreducible plane curve of
degree d through the first r of them (genus g = (d-1)(d-2)/2) and walks the
sequence D_0, D_1, ... where each step subtracts the class
[C] = d*L - E_1 - ... - E_r and renormalizes by *unloading*: repeatedly
subtracting N_j = E_j - E_{j+1} (and N_n = E_n) whenever the class meets N_j
negatively, until the multiplicities are nonincreasing with last entry >= 0.
The rewriting itself is never run: on a normal-form vector the fixpoint of
one step has a closed form (re-sort, then raise -1 entries to 0), which
_step_runs applies, and _walk is the one loop that steps D_i -> D_{i+1}.

Writing t_i = D_i . L and stopping at the first index j with t_j < d, the
criterion

    D_i . C <= g - 1  for 0 <= i < j   and   (t_j+1)(t_j+2) <= 2(d*t_j - D_j . C)

certifies that t_0*L - m_1*E_1 - ... - m_n*E_n is not the class of an
effective divisor, hence alpha(m) > t_0; the largest t_0 satisfying it gives
a certified lower bound 1 + t_0 for alpha(m).  Everything is integer
arithmetic.

The multiplicity walk does not depend on t_0: only the degrees shift, by d
per step, so t_i = t_0 - i*d and D_i . C = d*t_0 - d^2*i - S_i, where S_i is
the sum of the first r multiplicities of D_i.  With q = t_0 // d the stop
index is j = q, and the criterion reduces to

    d*t_0 <= g - 1 + min_{i < q} (d^2*i + S_i)   and   (s+1)(s+2) <= 2*S_q,

with s = t_0 mod d (the first condition is empty when t_0 < d).  One walk
of S_0, S_1, ... and its prefix minima therefore decide every t_0 in O(1).
The walk is stepped in run-length form [(value, count), ...]: a step
touches each run once, and semiuniform vectors stay a few runs long.

Once the vector is *balanced* (its entries differ by at most 1) the walk
has a closed form.  A balanced vector is fixed by its total T: with
v, a = divmod(T, n) it is (v+1)^[a], v^[n-a], so S = r*v + min(a, r).  One
step keeps it balanced with total max(T - r, 0).  Proof: subtracting 1 from
the first r entries gives (v+1)^[a-r], v^[n-a+r] when a >= r, and
v^[n-r+a], (v-1)^[r-a] after re-sorting when a < r; the second has an
entry -1 only when v = 0, and then T = a < r and the clamp leaves the zero
vector.  So the walk steps runs only until the vector is balanced, and the
rest of S_0, S_1, ... follows from T alone.

Only a bounded stretch of the balanced tail needs storing.  Let b be the
first balanced index, T_b its total, and T_i = T_b - r*(i - b) for
b <= i < z, where z = b + ceil(T_b / r) is the first index of the zero
vector.  Writing x = T_i mod n and psi(x) = n*min(x, r) - r*x,

    n*(d^2*i + S_i) = n*d^2*b + r*T_b + (i - b)*(n*d^2 - r^2) + psi(x),

because n*S_i = r*(T_i - x) + n*min(x, r) = r*T_i + psi(x).  psi lies in
[0, r(n - r)]: it is (n - r)*x for x <= r and r*(n - x) for r <= x < n.
So n*(a_i - a_b) >= (i - b)*(n*d^2 - r^2) - r(n - r) for a_i = d^2*i + S_i,
and when n*d^2 > r^2 every i >= b + K with K = floor(r(n - r)/(n*d^2 - r^2))
+ 1 has a_i > a_b: it cannot lower a prefix minimum.  Past z the vector is
zero and a_i = d^2*i, whose least value d^2*z joins the minima.  The walk
therefore stores entries only up to min(count, b + K - 1, z - 1), and the
criterion reads later S_i from the closed form and later prefix minima as
the last stored one, lowered to d^2*z once i >= z.  When n*d^2 <= r^2
(r = ceil(d*sqrt(n)) for nonsquare n, or r = n) there is no K, and the
store runs to z - 1.

A uniform vector needs no walk at all under the default configuration
(d = floor(sqrt(n)) and r = floor(d*sqrt(n)), so d^2 <= r and r^2 <= n*d^2).
The vector (m^[n]), m >= 1, is balanced at step 0: b = 0 and T_0 = m*n.
Write m*n = u*r + rho with 0 < rho <= r, A = floor((m*r + g - 1)/d) and
B = u*d + s, with s the largest integer below d such that
(s+1)(s+2) <= 2*rho.  Then the criterion holds exactly for
0 <= t_0 <= min(A, B), so alpha_lower_bound((m,)*n, cfg) = 1 + min(A, B),
which is alpha_lb_closed(m, 0, cfg):

* Interior condition.  a_0 = S_0 = r*m.  For 0 < i < z the identity above
  with b = 0 gives n*a_i = n*r*m + i*(n*d^2 - r^2) + psi(x) >= n*a_0, since
  n*d^2 >= r^2 and psi >= 0; for i >= z = ceil(m*n/r), a_i = d^2*i >=
  d^2*m*n/r >= r*m.  So every prefix minimum is r*m, and for t_0 >= d the
  condition d*t_0 <= g - 1 + r*m reads t_0 <= A.  It is empty for t_0 < d,
  and those t_0 are at most A anyway: r*m >= d^2 and g >= 0 give
  A >= floor((d^2 - 1)/d) = d - 1.
* Final condition.  With q = t_0 // d, T_q = max(m*n - r*q, 0).  For q < u,
  T_q > r, so the r largest entries are all at least 1, and
  S_q >= r >= d^2 >= d(d+1)/2: every remainder t_0 - q*d <= d - 1 passes.
  For q = u, T_u = rho <= r <= n and the vector is 1^[rho], 0^[n-rho], so
  S_u = rho and exactly the remainders 0..s pass.  For q > u, S_q = 0 and
  none passes.  So the final condition holds exactly for 0 <= t_0 <= B.
* Window.  A <= m*sqrt(n) + (g - 1)/d < m*sqrt(n) + d, so min(A, B) lies in
  the scanned window [0, ceil(m*sqrt(n)) + d], and the scan from the top
  stops there.

Where the blockers sit.  Take a k = 0 class C(t, m), so t < m*sqrt(n),
under a configuration with d^2 <= r and r^2 <= n*d^2 (the default is one).
Then t > A exactly when d*t - r*m >= g: t > floor((m*r + g - 1)/d) means
d*t > m*r + g - 1, and both sides are integers.  A class the criterion
cannot exclude has t > min(A, B).  If the interior condition fails
(t > A), then g <= d*t - r*m < m*(d*sqrt(n) - r), where d*sqrt(n) - r > 0
for nonsquare n, so m > m_0 = g/(d*sqrt(n) - r).  The final condition could
bind instead: m*n = u*r + rho with rho <= r gives u*d >= (m*n/r - 1)*d >=
m*sqrt(n) - d > t - d, so a class with B < t <= A exceeds B by less than d,
and m > m_0 does not follow for it.  So B stays in the closed form until a
proof shows that it never binds.

So exclusions.is_excluded decides a k = 0 class by alpha_lb_closed, in
O(1), with the walk's verdict.  The walk serves k != 0, where the closed
form is weaker, and the alpha command's --mults and --trace.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate, groupby
from math import isqrt
from operator import add, lt

from .lattice import DomainError, InvalidInput, ceil_sqrt


class UnloadingDiverged(RuntimeError):
    """Internal diagnostic: the specialization walk exceeded its step cap."""


class SpecializationConfig(namedtuple("SpecializationConfig", "n d r")):
    """Parameters (n, d, r) of the specialization curve, and its genus g.

    The default, d = floor(sqrt(n)) and r = floor(d*sqrt(n)), is the only
    configuration proved to give one-sided exclusions, so it is the only
    one the bounds, the exclusions, the cache and the CLI use.  Any d >= 1
    and 1 <= r <= n are still accepted, so that a stored report decodes
    (and its check refuses it) and the walk can be studied under other
    configurations; their hypotheses are open (ROADMAP item 7).
    """

    __slots__ = ()

    def __new__(cls, n: int, d: int, r: int) -> "SpecializationConfig":
        self = super().__new__(cls, n, d, r)
        if n < 10:
            raise DomainError(f"specialization requires n >= 10, got {n}")
        if d < 1 or r < 1:
            raise InvalidInput(f"bad specialization parameters {self}")
        if r > n:
            raise InvalidInput(f"r = {r} exceeds n = {n}")
        return self

    # _replace builds through _make, so both validate as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def g(self) -> int:
        """Genus (d-1)(d-2)/2 of a smooth plane curve of degree d."""
        return (self.d - 1) * (self.d - 2) // 2

    @classmethod
    def default(cls, n: int) -> "SpecializationConfig":
        d = isqrt(n)
        return cls(n=n, d=d, r=isqrt(d * d * n))


Runs = list[tuple[int, int]]


def _to_runs(mults: Sequence[int]) -> Runs:
    """Run-length form [(value, count), ...] of a nonincreasing vector."""
    return [(v, len(list(group))) for v, group in groupby(mults)]


def _from_runs(runs: Runs) -> tuple[int, ...]:
    out: list[int] = []
    for v, c in runs:
        out.extend([v] * c)
    return tuple(out)


def _head_sum(runs: Runs, r: int) -> int:
    """Sum of the first r entries of the vector with these runs."""
    s = 0
    for v, c in runs:
        if c >= r:
            return s + v * r
        s += v * c
        r -= c
    return s


def _step_runs(runs: Runs, r: int) -> Runs:
    """One specialization step on runs: subtract 1 from the first r entries
    of a normal-form vector and unload.

    For such inputs the fixpoint has a closed description: the only possible
    interior violation sits at the junction r and differs by exactly one, so
    unloading just re-sorts the entries; entries driven to -1 (from zeros in
    the prefix) are raised back to 0 by the tail rule.  On runs that is a
    merge of two decreasing run lists, linear in the number of runs.
    """
    moved: Runs = []
    left = r
    for v, c in runs:
        if left >= c:
            moved.append((v - 1, c))
            left -= c
        elif left:
            moved.append((v - 1, left))
            moved.append((v, c - left))
            left = 0
        else:
            moved.append((v, c))
    moved.sort(reverse=True)
    out: Runs = []
    for v, c in moved:
        if v < 0:
            v = 0
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + c)
        else:
            out.append((v, c))
    return out


def _walk(mults: Sequence[int], r: int) -> Iterator[Runs]:
    """Runs of D_0, D_1, ... for the normal-form vector mults: the one loop
    that steps D_i -> D_{i+1}.  Endless; the zero vector steps to itself."""
    runs = _to_runs(mults)
    while True:
        yield runs
        runs = _step_runs(runs, r)


class _HeadSums(namedtuple("_HeadSums", "sums lows start total zero n r dd")):
    """S_i and the prefix minima min_{j <= i} (d^2*j + S_j) of one walk.

    Entries up to index len(sums) - 1 are stored.  Later ones follow the
    balanced closed form from the first balanced index `start` and its
    total `total`; `zero` is the first index of the zero vector (see
    _head_sums).
    """

    __slots__ = ()

    def at(self, i: int) -> int:
        """S_i."""
        if i < len(self.sums):
            return self.sums[i]
        t = self.total - self.r * (i - self.start)
        if t <= 0:
            return 0
        return self.r * (t // self.n) + min(t % self.n, self.r)

    def low(self, i: int) -> int:
        """min over j <= i of d^2*j + S_j."""
        lows = self.lows
        low = lows[i] if i < len(lows) else lows[-1]
        return min(low, self.dd * self.zero) if i >= self.zero else low


def _head_sums(mults: Sequence[int], cfg: SpecializationConfig, count: int) -> _HeadSums:
    """S_0, ..., S_count (the sum of the first r multiplicities of each D_i)
    and their prefix minima of d^2*i + S_i.

    Runs are stepped only until the vector is balanced (entries differ by
    at most 1: one run, or two runs one apart).  A balanced vector with
    total T is (v+1)^[a], v^[n-a] with v, a = divmod(T, n), so its head sum
    is r*v + min(a, r), and one step leaves it balanced with total
    max(T - r, 0): if a >= r the r largest entries drop to v; if a < r and
    v >= 1 the vector becomes v^[n-r+a], (v-1)^[r-a]; if a < r and v = 0
    then T < r and every entry ends at 0.  So the rest of the walk is
    S_i = r*(T_i // n) + min(T_i mod n, r) with T_i = max(T - r*(i - b), 0)
    and b the first balanced index.  The zero vector is balanced (one run),
    so it needs no special case.

    Past b the entries are stored only while they can lower a prefix
    minimum.  With z = b + ceil(T_b / r) the first zero index and
    psi(x) = n*min(x, r) - r*x, every b <= i < z has

        n*(d^2*i + S_i) = n*d^2*b + r*T_b + (i - b)*(n*d^2 - r^2) + psi(T_i mod n),

    and 0 <= psi <= r(n - r).  So when n*d^2 > r^2 no i >= b + K, with
    K = floor(r(n - r)/(n*d^2 - r^2)) + 1, lowers a minimum, and for i >= z
    only d^2*z can.  The store ends at min(count, b + K - 1, z - 1), and at
    least at b; without a positive n*d^2 - r^2 there is no K.
    """
    n, r, dd = cfg.n, cfg.r, cfg.d * cfg.d
    sums: list[int] = []
    for runs in _walk(mults, r):
        if len(sums) > count or _balanced(runs):
            break
        sums.append(_head_sum(runs, r))
    # start is b, or count + 1 when the vector is not balanced by then and
    # every entry is already stored
    start = len(sums)
    total = sum(v * c for v, c in runs)
    zero = start - (-total // r)
    if start <= count:
        last = min(count, zero - 1)
        slope = n * dd - r * r
        if slope > 0:
            last = min(last, start + r * (n - r) // slope)
        # min(a, r) is written inline: a builtin call per entry costs about
        # as much as the rest of the expression.
        totals = range(total, total - r * (max(last, start) + 1 - start), -r)
        sums += [r * (t // n) + (a if (a := t % n) < r else r) for t in totals]
    lows = list(accumulate(map(add, sums, range(0, dd * len(sums), dd)), min))
    return _HeadSums(sums, lows, start, total, zero, n, r, dd)


def _balanced(runs: Runs) -> bool:
    """Entries differ by at most 1: one run, or two runs one apart."""
    return len(runs) == 1 or (len(runs) == 2 and runs[0][0] == runs[1][0] + 1)


def _passes(t0: int, cfg: SpecializationConfig, walk: _HeadSums) -> bool:
    """The criterion for degree t0, in O(1) from S_i and its prefix minima.

    With q = t0 // d (0 when t0 < d), the interior steps are i < q, where
    D_i . C <= g - 1 reads d*t0 <= g - 1 + d^2*i + S_i; at j = q the final
    inequality has t_j = t0 - q*d and d*t_j - D_j . C = S_j.
    """
    d = cfg.d
    q = t0 // d if t0 > 0 else 0
    tj = t0 - q * d
    if q and d * t0 > cfg.g - 1 + walk.low(q - 1):
        return False
    return (tj + 1) * (tj + 2) <= 2 * walk.at(q)


class TraceStep(namedtuple("TraceStep", "index mults t dot_c")):
    """Step i of the walk: D_i = t*L - sum(mults[j] * E_j), and D_i . C."""

    __slots__ = ()


class UnloadingTrace(namedtuple("UnloadingTrace", "steps j omega_prime")):
    """Recorded walk D_0, D_1, ... with t_i = D_i . L and D_i . C.

    j is the first index with t_j < d, and omega_prime the least index at
    which every multiplicity has unloaded to zero; steps holds D_0 up to
    D_max(j, omega_prime).
    """

    __slots__ = ()


def _require_normal_form(mults: Sequence[int], n: int) -> tuple[int, ...]:
    ms = tuple(map(int, mults))
    if len(ms) != n:
        raise InvalidInput(f"expected {n} multiplicities, got {len(ms)}")
    if any(map(lt, ms, ms[1:])):
        raise InvalidInput("multiplicities must be nonincreasing")
    if ms[-1] < 0:
        raise InvalidInput("multiplicities must be non-negative")
    return ms


def d_sequence(degree: int, mults: Sequence[int], cfg: SpecializationConfig) -> UnloadingTrace:
    """Trace of the specialization walk starting at D_0 = degree*L - sum(m_i*E_i).

    mults must be in normal form (nonincreasing, length n, last entry >= 0).
    Records (i, multiplicities of D_i, t_i, D_i . C) for i = 0..max(j,
    omega_prime), with t_i = degree - i*d and D_i . C = d*t_i - (sum of the
    first r multiplicities).  j is the first index with t_i < d, which is
    max(degree, 0) // d, and omega_prime the first index of the zero vector.
    A walk longer than its step cap raises UnloadingDiverged: a faulty step,
    not a long trace.
    """
    ms = _require_normal_form(mults, cfg.n)
    d, r = cfg.d, cfg.r
    j = max(degree, 0) // d
    cap = sum(ms) + cfg.n + 12 + j
    steps: list[TraceStep] = []
    omega = -1
    for i, runs in enumerate(_walk(ms, r)):
        t = degree - i * d
        steps.append(TraceStep(i, _from_runs(runs), t, d * t - _head_sum(runs, r)))
        if omega < 0 and runs[0][0] == 0:
            omega = i
        if omega >= 0 and i >= j:
            break
        if i > cap:
            raise UnloadingDiverged(f"trace exceeded {cap} steps")
    return UnloadingTrace(steps=tuple(steps), j=j, omega_prime=omega)


def alpha_lower_bound(mults: Sequence[int], cfg: SpecializationConfig) -> int:
    """Certified lower bound for alpha(mults): 1 + max{t : criterion holds}.

    The window [0, ceil(sum(m)/sqrt(n)) + d] is scanned from the top (the
    criterion is not assumed monotone in t, and the first satisfying t from
    above is the maximum); if no t satisfies the criterion the bound is 1.
    The multiplicity walk does not depend on t, so it runs once, as runs,
    up to D_{hi // d}; each scanned t then costs O(1) via the prefix-minimum
    form of the criterion (see the module docstring).
    """
    ms = _require_normal_form(mults, cfg.n)
    total = sum(ms)
    if total == 0:
        raise InvalidInput("all-zero multiplicity vector")
    hi = ceil_sqrt(-(-total * total // cfg.n)) + cfg.d
    walk = _head_sums(ms, cfg, hi // cfg.d)
    for t in range(hi, -1, -1):
        if _passes(t, cfg, walk):
            return t + 1
    return 1


def semiuniformize(n: int, m: int, k: int) -> tuple[int, ...]:
    """Nonincreasing multiplicity vector fed to the criterion for C(t, m, k).

    For 0 < k <= n with k^2 <= m the semiuniform vector ((m+1)^[k], m^[n-k])
    is used: under the specialization its alpha is a lower bound for alpha of
    the raw vector, because the raw vector differs from it by adding the
    effective classes E_1 - E_j, 2 <= j <= k.  For k < 0 the raw
    (m^[n-1], m+k); for k = 0 the uniform vector.  If the k > 0 conditions
    fail, falls back to the raw sorted vector (m+k, m^[n-1]).
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if k == 0:
        return (m,) * n
    if k < 0:
        return (m,) * (n - 1) + (m + k,)
    if k <= n and k * k <= m:
        return (m + 1,) * k + (m,) * (n - k)
    return (m + k,) + (m,) * (n - 1)


def alpha_lb_closed(m: int, k: int, cfg: SpecializationConfig) -> int:
    """Closed-form bound 1 + min(floor((mr+k+g-1)/d), s + u*d) for alpha,
    for the semi-uniform vector of n = cfg.n points.

    cfg must be the default specialization of n, the only one the form is
    proved for and the only one its callers build.  Requires k^2 <= m and
    m < n when k != 0 (the uniform k = 0 case is valid for every m >= 1).
    u and rho split the total multiplicity as m*n + k = u*r + rho with
    0 < rho <= r, and s is the largest integer with (s+1)(s+2) <= 2*rho and
    0 <= s < d, that is min(d - 1, floor((sqrt(8*rho + 1) - 3) / 2)).
    When k < 0 and Delta = n - d^2 is even and positive, mr + g - 1
    replaces mr + k + g - 1.  For k = 0 the value equals
    alpha_lower_bound((m,)*n, cfg) (see the module docstring).
    """
    n, d, r, g = cfg.n, cfg.d, cfg.r, cfg.g
    if m < 1 or k * k > m or (k != 0 and m >= n):
        raise DomainError(f"closed form needs k^2 <= m (and m < n unless k = 0), got m={m}, k={k}")
    u, rho = divmod(m * n + k, r)
    if rho == 0:
        u, rho = u - 1, r
    s = min(d - 1, (isqrt(8 * rho + 1) - 3) // 2)
    delta = n - d * d
    numer = m * r + g - 1 if (k < 0 and delta > 0 and delta % 2 == 0) else m * r + k + g - 1
    return 1 + min(numer // d, s + u * d)
