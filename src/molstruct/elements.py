"""Periodic table data: symbols, standard atomic weights, and valence rules.

Weights follow the IUPAC 2021 standard atomic weights (conventional values
for interval elements, four decimals at most).  Elements without a standard
atomic weight carry the mass number of their longest-lived isotope.
"""

from __future__ import annotations

# (atomic number, symbol, standard atomic weight)
_ELEMENTS_DATA: tuple[tuple[int, str, float], ...] = (
    (1, "H", 1.008),
    (2, "He", 4.0026),
    (3, "Li", 6.94),
    (4, "Be", 9.0122),
    (5, "B", 10.81),
    (6, "C", 12.011),
    (7, "N", 14.007),
    (8, "O", 15.999),
    (9, "F", 18.998),
    (10, "Ne", 20.1797),
    (11, "Na", 22.9898),
    (12, "Mg", 24.305),
    (13, "Al", 26.9815),
    (14, "Si", 28.085),
    (15, "P", 30.9738),
    (16, "S", 32.06),
    (17, "Cl", 35.45),
    (18, "Ar", 39.95),
    (19, "K", 39.0983),
    (20, "Ca", 40.078),
    (21, "Sc", 44.9559),
    (22, "Ti", 47.867),
    (23, "V", 50.9415),
    (24, "Cr", 51.9961),
    (25, "Mn", 54.938),
    (26, "Fe", 55.845),
    (27, "Co", 58.9332),
    (28, "Ni", 58.6934),
    (29, "Cu", 63.546),
    (30, "Zn", 65.38),
    (31, "Ga", 69.723),
    (32, "Ge", 72.63),
    (33, "As", 74.9216),
    (34, "Se", 78.971),
    (35, "Br", 79.904),
    (36, "Kr", 83.798),
    (37, "Rb", 85.4678),
    (38, "Sr", 87.62),
    (39, "Y", 88.9058),
    (40, "Zr", 91.224),
    (41, "Nb", 92.9064),
    (42, "Mo", 95.95),
    (43, "Tc", 97.0),
    (44, "Ru", 101.07),
    (45, "Rh", 102.9055),
    (46, "Pd", 106.42),
    (47, "Ag", 107.8682),
    (48, "Cd", 112.414),
    (49, "In", 114.818),
    (50, "Sn", 118.71),
    (51, "Sb", 121.76),
    (52, "Te", 127.6),
    (53, "I", 126.9045),
    (54, "Xe", 131.293),
    (55, "Cs", 132.9055),
    (56, "Ba", 137.327),
    (57, "La", 138.9055),
    (58, "Ce", 140.116),
    (59, "Pr", 140.9077),
    (60, "Nd", 144.242),
    (61, "Pm", 145.0),
    (62, "Sm", 150.36),
    (63, "Eu", 151.964),
    (64, "Gd", 157.25),
    (65, "Tb", 158.9254),
    (66, "Dy", 162.5),
    (67, "Ho", 164.9303),
    (68, "Er", 167.259),
    (69, "Tm", 168.9342),
    (70, "Yb", 173.045),
    (71, "Lu", 174.9668),
    (72, "Hf", 178.486),
    (73, "Ta", 180.9479),
    (74, "W", 183.84),
    (75, "Re", 186.207),
    (76, "Os", 190.23),
    (77, "Ir", 192.217),
    (78, "Pt", 195.084),
    (79, "Au", 196.9666),
    (80, "Hg", 200.592),
    (81, "Tl", 204.38),
    (82, "Pb", 207.2),
    (83, "Bi", 208.9804),
    (84, "Po", 209.0),
    (85, "At", 210.0),
    (86, "Rn", 222.0),
    (87, "Fr", 223.0),
    (88, "Ra", 226.0),
    (89, "Ac", 227.0),
    (90, "Th", 232.0377),
    (91, "Pa", 231.0359),
    (92, "U", 238.0289),
    (93, "Np", 237.0),
    (94, "Pu", 244.0),
    (95, "Am", 243.0),
    (96, "Cm", 247.0),
    (97, "Bk", 247.0),
    (98, "Cf", 251.0),
    (99, "Es", 252.0),
    (100, "Fm", 257.0),
    (101, "Md", 258.0),
    (102, "No", 259.0),
    (103, "Lr", 266.0),
    (104, "Rf", 267.0),
    (105, "Db", 268.0),
    (106, "Sg", 269.0),
    (107, "Bh", 270.0),
    (108, "Hs", 269.0),
    (109, "Mt", 278.0),
    (110, "Ds", 281.0),
    (111, "Rg", 282.0),
    (112, "Cn", 285.0),
    (113, "Nh", 286.0),
    (114, "Fl", 289.0),
    (115, "Mc", 290.0),
    (116, "Lv", 293.0),
    (117, "Ts", 294.0),
    (118, "Og", 294.0),
)


SYMBOL_TO_NUMBER: dict[str, int] = {sym: z for z, sym, _ in _ELEMENTS_DATA}
ATOMIC_WEIGHTS: dict[str, float] = {sym: w for _, sym, w in _ELEMENTS_DATA}

# Allowed valences for the plain (non-bracket) organic subset.  Implicit
# hydrogens are assigned against the smallest allowed valence that fits;
# exceeding all of them is a valence error.
DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Organic-subset symbols writable without brackets, and the subset of
# elements that may be written lowercase (aromatic).  "se" and "as" are
# accepted in brackets only.
ORGANIC_SUBSET: frozenset[str] = frozenset(DEFAULT_VALENCES)
AROMATIC_ORGANIC: frozenset[str] = frozenset({"b", "c", "n", "o", "p", "s"})

# Outer-shell electron counts and lowest bonding valence for the pi-electron
# model used by aromaticity perception.  Elements missing from these tables
# never donate ring pi electrons.
OUTER_ELECTRONS: dict[str, int] = {
    "B": 3,
    "C": 4,
    "N": 5,
    "O": 6,
    "P": 5,
    "S": 6,
    "Se": 6,
    "As": 5,
    "Te": 6,
    "Si": 4,
}
PI_VALENCE: dict[str, int] = {
    "B": 3,
    "C": 4,
    "N": 3,
    "O": 2,
    "P": 3,
    "S": 2,
    "Se": 2,
    "As": 3,
    "Te": 2,
    "Si": 4,
}

# Elements whose cations gain one allowed valence per unit of charge
# (nitrogen and oxygen families).
CATION_VALENCE_SHIFT: frozenset[str] = frozenset({"N", "P", "As", "O", "S", "Se", "Te"})
