"""Embedded reference tables used by the verification harness.

TABLE_A: the 32 test classes C(t, m, k) for n = 10 with m <= 182, with their
e values as printed (truncated to two decimals, trailing zeros trimmed).

TABLE_B: best known f(n) for every nonsquare 10 <= n <= 99, with the class
C(t, m) that would have to be ruled out to do better.  The rows whose value
comes from the literature are tagged with their source: n in {17, 19, 22,
26, 37, 50, 65, 82} (Biran) and n = 41 (Harbourne).  The package derives
seven of them itself: the six n = d^2 + 1 give (2n - 1)^2 through the
Delta = 1 formula, and compute_bound(41) gives f = 1025 exactly.  Only
n = 19 and n = 22 need an imported value (REFERENCE_F).  The n = 19 row is
printed "C(170.39)" in the source table and is normalized here to
(170, 39) with the original spelling preserved.

Each printed f is a lossy decimal; the exact value is recoverable from the
row's own class C(t, m): f = (mn)^2 / ((mn)^2 - n t^2) when the class is on
the abnormal side, and f = n t^2 / (n t^2 - (mn)^2) when it is on the nef
side (rows 19 and 22).  For every row except n = 21 and n = 79 the printed
decimal is exactly the truncation of that value; those two rows are one
digit short (1187.1 vs 1187.11..., 19525.09 vs 19525.10...) and carry
data-quality notes.  Verification compares against the implied exact values
and reports the two discrepancies instead of hiding them.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class TableARow(namedtuple("TableARow", "t m k e_str")):
    __slots__ = ()


class TableBRow(namedtuple("TableBRow", "n f_str t m source note", defaults=(None, None))):
    """A non-None source marks an imported (reference) value."""

    __slots__ = ()


# Sorted by (m, k=0 first, k, t), the enumeration's output order.
TABLE_A: tuple[TableARow, ...] = (
    TableARow(3, 1, 0, "1"),
    TableARow(6, 2, -1, "36.1"),
    TableARow(22, 7, 0, "8.16"),
    TableARow(41, 13, 0, "18.77"),
    TableARow(60, 19, 0, "36.1"),
    TableARow(79, 25, 0, "69.44"),
    TableARow(80, 25, 3, "711.21"),
    TableARow(98, 31, 0, "160.16"),
    TableARow(117, 37, 0, "1369"),
    TableARow(154, 49, -3, "2635.21"),
    TableARow(177, 56, 0, "101.16"),
    TableARow(191, 60, 4, "6080.26"),
    TableARow(191, 61, -6, "6080.26"),
    TableARow(196, 62, 0, "160.16"),
    TableARow(215, 68, 0, "308.26"),
    TableARow(228, 72, 1, "51984.1"),
    TableARow(234, 74, 0, "1369"),
    TableARow(308, 98, -6, "2635.21"),
    TableARow(313, 99, 0, "239.04"),
    TableARow(332, 105, 0, "424.03"),
    TableARow(351, 111, 0, "1369"),
    TableARow(382, 120, 8, "6080.26"),
    TableARow(419, 132, 5, "11704.16"),
    TableARow(419, 133, -5, "11704.16"),
    TableARow(430, 136, 0, "308.26"),
    TableARow(449, 142, 0, "517.02"),
    TableARow(456, 144, 2, "51984.1"),
    TableARow(456, 145, -8, "51984.1"),
    TableARow(468, 148, 0, "1369"),
    TableARow(547, 173, 0, "369.49"),
    TableARow(566, 179, 0, "593.35"),
    TableARow(573, 182, -8, "6080.26"),
)


TABLE_B: tuple[TableBRow, ...] = (
    TableBRow(10, "1011.61", 177, 56),
    TableBRow(11, "402.28", 106, 32),
    TableBRow(12, "300.52", 83, 24),
    TableBRow(13, "325", 90, 25),
    TableBRow(14, "740.6", 86, 23),
    TableBRow(15, "566.78", 89, 23),
    TableBRow(17, "1089", 136, 33, source="Biran"),
    TableBRow(18, "466.94", 89, 21),
    TableBRow(19, "28900", 170, 39, source="Biran",
              note="printed as C(170.39); normalized to (170, 39)"),
    TableBRow(20, "660.64", 143, 32),
    TableBRow(21, "1187.1", 142, 31,
              note="printed value is one digit short; C(142,31) gives exactly 20181/17 = 1187.11..."),
    TableBRow(22, "38809", 197, 42, source="Biran"),
    TableBRow(23, "576", 115, 24),
    TableBRow(24, "1009.2", 142, 29),
    TableBRow(26, "2601", 260, 51, source="Biran"),
    TableBRow(27, "997.96", 161, 31),
    TableBRow(28, "1304.25", 201, 38),
    TableBRow(29, "639.45", 113, 21),
    TableBRow(30, "1230.76", 219, 40),
    TableBRow(31, "1093.26", 128, 23),
    TableBRow(32, "940.52", 147, 26),
    TableBRow(33, "1093.55", 178, 31),
    TableBRow(34, "1731.93", 239, 41),
    TableBRow(35, "974.47", 136, 23),
    TableBRow(37, "5329", 444, 73, source="Biran"),
    TableBRow(38, "1898.97", 265, 43),
    TableBRow(39, "1779.7", 231, 37),
    TableBRow(40, "1601.66", 196, 31),
    TableBRow(41, "1025", 160, 25, source="Harbourne"),
    TableBRow(42, "1306.94", 149, 23),
    TableBRow(43, "1741.5", 236, 36),
    TableBRow(44, "1985.5", 252, 38),
    TableBRow(45, "3782.25", 275, 41),
    TableBRow(46, "3140.26", 217, 32),
    TableBRow(47, "7109.17", 994, 145),
    TableBRow(48, "1521.39", 187, 27),
    TableBRow(50, "9801", 700, 99, source="Biran"),
    TableBRow(51, "3313.98", 407, 57),
    TableBRow(52, "6257.33", 274, 38),
    TableBRow(53, "3499.89", 313, 43),
    TableBRow(54, "5713.2", 338, 46),
    TableBRow(55, "2370.64", 304, 41),
    TableBRow(56, "3193.01", 419, 56),
    TableBRow(57, "2608.42", 234, 31),
    TableBRow(58, "9802", 396, 52),
    TableBRow(59, "3352.27", 192, 25),
    TableBRow(60, "7562.5", 852, 110),
    TableBRow(61, "5380.2", 328, 42),
    TableBRow(62, "12164.13", 1496, 190),
    TableBRow(63, "2242.33", 246, 31),
    TableBRow(65, "16641", 1040, 129, source="Biran"),
    TableBRow(66, "5410.98", 593, 73),
    TableBRow(67, "5550.49", 532, 65),
    TableBRow(68, "4442.13", 437, 53),
    TableBRow(69, "8283.45", 407, 49),
    TableBRow(70, "5603.33", 343, 41),
    TableBRow(71, "6819.08", 792, 94),
    TableBRow(72, "3008.34", 263, 31),
    TableBRow(73, "8129.89", 786, 92),
    TableBRow(74, "9085.64", 929, 108),
    TableBRow(75, "9409", 840, 97),
    TableBRow(76, "5337.1", 462, 53),
    TableBRow(77, "13862.75", 1246, 142),
    TableBRow(78, "5698.52", 627, 71),
    TableBRow(79, "19525.09", 2142, 241,
              note="printed value is a hundredth short; C(2142,241) gives exactly 4588399/235 = 19525.10..."),
    TableBRow(80, "5107.27", 474, 53),
    TableBRow(82, "26569", 1476, 163, source="Biran"),
    TableBRow(83, "8381.98", 829, 91),
    TableBRow(84, "7709.47", 724, 79),
    TableBRow(85, "5802.66", 295, 32),
    TableBRow(86, "14198.76", 1493, 161),
    TableBRow(87, "5497.02", 457, 49),
    TableBRow(88, "8530.92", 666, 71),
    TableBRow(89, "7281.81", 566, 60),
    TableBRow(90, "13690", 702, 74),
    TableBRow(91, "5126.33", 372, 39),
    TableBRow(92, "13370.32", 1103, 115),
    TableBRow(93, "6076", 405, 42),
    TableBRow(94, "14950.51", 1367, 141),
    TableBRow(95, "6390.76", 614, 63),
    TableBRow(96, "18070.33", 1695, 173),
    TableBRow(97, "4773.3", 453, 46),
    TableBRow(98, "29804.08", 2950, 298),
    TableBRow(99, "6892.38", 587, 59),
)

TABLE_B_BY_N: dict[int, TableBRow] = {row.n: row for row in TABLE_B}

# n -> (f value, source) for the Table-B values that nothing in the package
# derives.  Each is t^2 for the fundamental solution of the Pell equation
# t^2 - n*m^2 = 1 (170^2 - 19*39^2 = 1, 197^2 - 22*42^2 = 1), but f = t^2 is
# not a bound in general, and the hypothesis of Biran's theorem that makes it
# one here is not stated in this package: these two values are unchecked.
REFERENCE_F: dict[int, tuple[int, str]] = {19: (28900, "Biran"), 22: (38809, "Biran")}


def implied_f(row: TableBRow) -> Fraction:
    """Exact f encoded by the row's class C(t, m) (all rows have k = 0).

    On the abnormal side (t*sqrt(n) < mn) this is the e-level times n; on
    the nef side (rows 19 and 22) it is the level at which the nef test
    class meets C(t, m) with value zero, n*t^2 / (n*t^2 - (mn)^2).
    """
    s = row.m * row.n
    gap = s * s - row.n * row.t * row.t
    if gap > 0:
        return Fraction(s * s, gap)
    if gap < 0:
        return Fraction(row.n * row.t * row.t, -gap)
    raise ValueError(f"degenerate table row {row}")
