"""Frozen expected tables used by the regression and acceptance tests."""

# Genus-1 integer counts for the local P^2 geometry, degrees 1..60.
GENUS1_LOCAL_P2 = [
    0, 0, -1, 0, -9, 20, -36, 0, 0, 162,
    -225, -19, -441, 630, 784, 0, -1296, 0, -2025, -153,
    3025, 3870, -4356, 0, 0, 7560, 0, -594, -11025, -13412,
    -14400, 0, 18496, 22140, 23409, 0, -29241, 34560, 36100, 0,
    -44100, -51590, -53361, -3645, 0, 74250, -76176, 0, 0, 0,
    105625, -7119, -123201, 0, 142884, 0, 164836, 187740, -189225, 12628,
]

# Genus-1 integer counts for the degree-7 hypersurface in P^6, degrees
# 1..10; acceptance criterion 8 reproduces them from the Gromov-Witten
# input that tests/mirror.py computes from the septic's mirror series.
GENUS1_SEPTIC = [
    0,
    0,
    26123172457235,
    81545482364153841075,
    117498479295762788677099464,
    126043741686161819224278666855602,
    117293462422824431122974865933687206294,
    100945295955344375879041227482174735213546636,
    82898589348613625712387472944689576403215969839772,
    66074146583335641807745540088333857250772567526848951526,
]

# Node-on-divisor meeting numbers n_{d1 d2}(H|;) for the septic,
# rows d1 = 1..3, columns d2 = 1..2; reproduced as above.
MEETING_SEPTIC = {
    (1, 1): 145366465734,
    (1, 2): 17628837973096812,
    (2, 1): 17628837973096812,
    (2, 2): 2134616449608028257452,
    (3, 1): 4403307962301366086458,
    (3, 2): 533112594803936499402982169,
}

# Hand-evaluated counts for the local P^2 geometry (empty diagonal,
# c2 = -3 H^2, 2-pointed base counts 1, -1, 0, ...).
LOCAL_P2_COUNTS = {
    "n1C(1)": 1,
    "n1C(2)": -1,
    "n1D(1)": -1,
    "n1E(1)": -3,
    "n1F(1)": 0,
    "n1F(2)": 3,
    "n1G(1)": 6,
    "gamma1(1)": 6,
    "gamma1(2)": -42,
    "n2A(1,1)": -3,
    "n2A(1,2)": -6,
    "n2A(2,1)": -3,
    "n2B(1,1)": -6,
    "n2B(1,2)": -24,
    "n2B(2,1)": -24,
    "C2(1,1)": 6,
    "n2C(1,1)": 9,
    "n2C(1,2)": 18,
    "n2C(2,1)": 45,
    "n2D(1,1)": 3,
    "n2D(1,2)": -6,
    "n2E(1,2)": 18,
    "gamma2(1,1)": 27,
    "m3(1,1,1)": -18,
    "chern(1)": -3,
    "chern(2)": 3,
    "chern(3)": 24,
}

# Hand-evaluated counts for the synthetic compact geometry of
# tests/conftest.py (t5 = 2, c2 = 5 H^2, c3 = 7 H^3, 1-pointed base
# counts (2, 3, 5, 7), 2-pointed base counts (1, 1, 1, 1)); these
# exercise the diagonal-splitting terms that the local geometry leaves
# empty.
SYNTHETIC_COUNTS = {
    "n1C(1)": -3,
    "n1C(3)": "14/9",
    "n1D(1)": -1,
    "n1E(1)": 5,
    "n1G(1)": -10,
    "gamma1(1)": 7,
    "n2A(1,1)": 6,
    "n2A(1,2)": 13,
    "n2A(2,1)": "15/2",
    "n2B(1,1)": -15,
    "n2B(1,2)": -78,
    "n2B(2,1)": -78,
    "n2C(1,1)": 36,
    "n2C(1,2)": "259/4",
    "n2C(2,1)": "327/2",
    "n2D(1,1)": -6,
    "n2E(1,2)": 66,
    "C2(1,2)": 81,
    "gamma2(1,1)": 102,
    "gamma2(2,1)": "1063/4",
    "m3(1,1,1)": -66,
    "m3(1,1,2)": 111,
    "m3(2,1,1)": 111,
    "m3(1,2,1)": "-1539/4",
}
