"""Seeded job lists, one per workload.

A job list is a fixed set of slots in seeded order.  The seed picks each
slot's inputs from a band of roughly equal cost, so two seeds give different
inputs but comparable work.  Oversize inputs are kept in the lists at a fixed
share of one per list: they are stopped at the per-job limit (or refused) and
appear in ``failed_ratio``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import exactref as X

WORKLOADS = ("grid", "cyclo", "dynatomic", "relation")


@dataclass
class Job:
    kind: str                 # scan | cover | sweep | cyclo | dynatomic | relation
    argv: list[str]           # dynlab CLI argv; ["D", "N"] for a sweep
    work: int                 # units of work credited when answered correctly
    files: tuple[str, ...] = ()   # files the job writes in its work directory
    oversize: bool = False
    spec: dict = field(default_factory=dict)  # what the oracle needs


def _fmt(rng: random.Random, json_share: float) -> list[str]:
    return ["--format", "json"] if rng.random() < json_share else []


# -- grid ---------------------------------------------------------------------

def _random_d(rng: random.Random) -> int:
    """A product of 1-4 random primes (some squared) below 10**12."""
    d, digits = 1, 12
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, max(1, min(7, digits - 1)))
        p = X.next_prime(rng.randint(10**(size - 1) + 1, 10**size))
        k = 2 if p < 100 and rng.random() < 0.4 else 1
        if d * p**k >= 10**12:
            break
        d *= p**k
        digits = 12 - len(str(d))
    return max(d, 2)


def grid_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    # Scans and sweeps cost about the same (0.6-0.7 s); over the two passes
    # of a run there are more of them than the ten jobs beyond the tail
    # percentile, so job_tail_s falls inside this group rather than on its
    # edge.
    for i in range(6):
        # About 120k cells each.  Above d_max 700 a cell costs more, so the
        # band stops there to keep the scans' cost even.
        d_max = rng.randint(400, 700)
        n_max = rng.randint(115_000, 125_000) // d_max
        argv = ["scan", "--d-max", str(d_max), "--n-max", str(n_max),
                "--out", "grid.csv"]
        files = ("grid.csv",)
        if i % 3 == 0:
            argv += ["--svg", "grid.svg"]
            files += ("grid.svg",)
        jobs.append(Job("scan", argv, d_max * n_max, files,
                        spec={"d_max": d_max, "n_max": n_max}))
    for i in range(16):
        n = rng.randint(2, 4000)
        d = _random_d(rng)
        if i % 2:
            # A prime p = 1 (mod n) makes the pairs e, e*p cancel: covered.
            p = X.next_prime_in_class(rng.randint(1, 10**7 // n), n)
            d = d * p if d * p < 10**12 else p
        argv = ["cover", "--d", str(d), "--n", str(n),
                "--certificate", "cover.json"] + _fmt(rng, 0.3)
        jobs.append(Job("cover", argv, 1, ("cover.json",),
                        spec={"d": d, "n": n}))
    d_max = rng.randint(50, 70)
    n_max = rng.randint(3000, 3600) // d_max
    jobs.append(Job("sweep", [str(d_max), str(n_max)], d_max * n_max))
    # phi(n) = n - 1 > 10**6: the unit-group enumeration cap refuses it.
    n = X.next_prime(rng.randint(10**6 + 1, 11 * 10**5))
    d = _random_d(rng)
    jobs.append(Job(
        "cover", ["cover", "--d", str(d), "--n", str(n), "--certificate",
                  "cover.json"], 1, ("cover.json",), oversize=True,
        spec={"d": d, "n": n}))
    return jobs


# -- cyclo --------------------------------------------------------------------

def _planted_poly(rng: random.Random) -> tuple[list[int], dict]:
    """x^k * prod Phi_n^mult * a random integer cofactor."""
    planted: dict[int, int] = {}
    budget = rng.randint(100, 120)
    while budget > 0:
        n = rng.randint(1, 60)
        phi = len(X.cyclotomic(n)) - 1
        if phi > budget or n in planted:
            budget -= 4
            continue
        planted[n] = rng.choice((1, 1, 2))
        budget -= phi * planted[n]
    cofactor = [rng.randint(-20, 20) for _ in range(rng.randint(55, 65))]
    cofactor[0] = cofactor[0] or 7
    cofactor.append(rng.choice((1, -1, 2, 3)))
    poly = cofactor
    for n, mult in planted.items():
        for _ in range(mult):
            poly = X.pmul(poly, X.cyclotomic(n))
    k = rng.randint(0, 3)
    return [0] * k + poly, {"planted": planted, "x_multiplicity": k}


def cyclo_jobs(rng: random.Random) -> list[Job]:
    def job(flag: str, value, work: int, json_share: float, **spec) -> Job:
        argv = ["cyclo-factors", flag, str(value)] + _fmt(rng, json_share)
        return Job("cyclo", argv, work, spec={"flag": flag, "value": value,
                                              **spec})

    def phi(n: int) -> int:
        return len(X.cyclotomic(n)) - 1

    # The planted polynomials are the largest group and cost about the same,
    # and fewer than ten jobs of the other kinds cost more, so job_tail_s
    # falls inside that group.
    jobs = []
    d = rng.randint(100, 170)
    jobs.append(job("--both", d, d + phi(d), 0.5))
    d = rng.randint(150, 200)
    jobs.append(job("--necklace", d, d, 0.5))
    for _ in range(4):
        n = rng.choice([n for n in range(200, 841) if 96 <= phi(n) <= 200])
        jobs.append(job("--shifted", n, phi(n), 0.5))
    for _ in range(10):
        coeffs, spec = _planted_poly(rng)
        jobs.append(job("--poly", X.format_poly(coeffs, "Q"), len(coeffs) - 1,
                        0.7, coeffs=coeffs, **spec))
    big = job("--necklace", 1100, 1100, 0.0)
    big.oversize = True
    jobs.append(big)
    return jobs


# -- dynatomic ----------------------------------------------------------------

# (ring, degree of f, d or (m, n), JSON output); the predicted output degree
# runs from about 10 to about 4000.  The cost of a job over Q or Q[a] depends
# on how fast the coefficients of the iterates of f grow, by up to 9x between
# small maps at the same slot, so the heavy slots (about 1 s each) draw f from
# maps measured to cost within about 10 % of each other.  There are six, so
# that over the two passes of a run job_tail_s falls inside this group.
# Formats are fixed per slot, so that peak memory does not depend on the seed.
DYNATOMIC_SLOTS = (
    # heavy
    ("Q", 2, 11, False), ("Q", 2, 11, True), ("Fp", 2, 12, False),
    ("Fp", 2, 12, False), ("Qa", 2, 6, False), ("Qa", 2, 6, False),
    # medium: job_p50_s falls inside this pair, whose cost does not depend
    # on the size of f's coefficients
    ("Fp", 3, 7, True), ("Fp", 3, 7, False),
    # light
    ("Q", 3, 6, True), ("Q", 2, (2, 4), False), ("Q", 3, (1, 3), True),
    ("Fp", 2, (3, 6), False), ("Qa", 2, 5, True), ("Qa", 2, (1, 3), False),
)

# Maps whose d = 11 dynatomic polynomial over Q cost within about 10 % of each
# other (about 1 s on the reference machine); other maps with coefficients in
# [-3, 3] took 0.41-3.7 s.
HEAVY_Q_MAPS = ([-1, 2, 1], [1, -1, 1], [-1, -1, 1], [-2, 1, 1])


def _small_monic(rng: random.Random, k: int, dense: bool = False) -> list[int]:
    """Monic of degree k with coefficients in [-3, 3] and a nonzero constant;
    ``dense`` makes every coefficient nonzero."""
    if dense:
        return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)] + [1]
    coeffs = [rng.randint(-3, 3) for _ in range(k)] + [1]
    coeffs[0] = coeffs[0] or rng.choice((1, -1, 2))
    return coeffs


def _qa_map(rng: random.Random, k: int) -> list[list[int]]:
    """Monic in x, with the parameter a added to the constant term.  For a
    quadratic the x coefficient is 1 or 3: those maps cost within about 8 %
    of each other at d = 6, where other placements of a ranged over 3.5x."""
    coeffs = [[c] if c else [] for c in _small_monic(rng, k)]
    if k == 2:
        coeffs[1] = [rng.choice((1, 3))]
    coeffs[0] = (coeffs[0] or [0]) + [1]
    return coeffs


def dynatomic_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for ring, k, index, json_out in DYNATOMIC_SLOTS:
        argv = ["dynatomic"]
        p = None
        if ring == "Qa":
            f = _qa_map(rng, k)
        elif (ring, k, index) == ("Q", 2, 11):
            f = list(rng.choice(HEAVY_Q_MAPS))
        else:
            # A sparse map such as x^2 + c iterates to a polynomial in x^2
            # and costs about half as much over F_p, where coefficient size
            # does not matter; F_p maps are dense so their cost is even.
            f = _small_monic(rng, k, dense=ring == "Fp")
        if ring == "Fp":
            p = X.next_prime(rng.randint(1000, 30000))
            argv += ["--p", str(p)]
        text = X.format_poly(f, ring if ring == "Qa" else "Q")
        argv[1:1] = ["--f", text]
        if isinstance(index, tuple):
            m, n = index
            argv += ["--m", str(m), "--n", str(n)]
            degree = X.gen_degree(k, m, n)
        else:
            m, n = 0, index
            argv += ["--d", str(n)]
            degree = X.dyn_degree(k, n)
        argv += ["--format", "json"] if json_out else []
        jobs.append(Job("dynatomic", argv, degree, spec={
            "ring": ring, "f": f, "p": p, "m": m, "n": n,
            "d_form": not isinstance(index, tuple)}))
    big = Job("dynatomic", ["dynatomic", "--f", "x^2+a", "--d", "9"],
              X.dyn_degree(2, 9), oversize=True,
              spec={"ring": "Qa", "f": [[0, 1], [], [1]], "p": None, "m": 0,
                    "n": 9, "d_form": True})
    jobs.append(big)
    return jobs


# -- relation -----------------------------------------------------------------

def _tuples(admissible: bool) -> list[tuple[int, int, int, int]]:
    """Tuples whose (c, d) dynatomic for a quartic map has degree <= 1000."""
    out = []
    for m in range(0, 4):
        for n in range(1, 4):
            for c in range(0, 5):
                for d in range(1, 7):
                    if not 12 <= X.gen_degree(4, c, d) <= 1000:
                        continue
                    if X.gen_degree(4, m, n) >= X.gen_degree(4, c, d):
                        continue
                    if X.relation_conditions(m, n, c, d)["admissible"] == admissible:
                        out.append((m, n, c, d))
    return out


ADMISSIBLE = _tuples(True)
NOT_ADMISSIBLE = _tuples(False)


def relation_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    # (pool, trial range, --force): two small, three medium and one large
    # admissible tuple, three refused ones and one forced one, three times.
    small = [t for t in ADMISSIBLE if X.gen_degree(4, t[2], t[3]) <= 180]
    medium = [t for t in ADMISSIBLE if X.gen_degree(4, t[2], t[3]) == 240]
    large = [t for t in ADMISSIBLE if X.gen_degree(4, t[2], t[3]) > 240]
    forced = [t for t in NOT_ADMISSIBLE if X.gen_degree(4, t[2], t[3]) <= 240]
    # One large tuple per round, so that job_tail_s falls inside the larger
    # group of medium ones rather than on the edge of the large group.
    plan = ([(small, (4, 8), False)] * 2 + [(medium, (4, 7), False)] * 3
            + [(large, (3, 4), False)]
            + [(NOT_ADMISSIBLE, (4, 8), False)] * 3
            + [(forced, (3, 5), True)])
    for pool, trial_range, force in plan * 3:
        m, n, c, d = rng.choice(pool)
        admissible = pool is not NOT_ADMISSIBLE and pool is not forced
        trials = rng.randint(*trial_range)
        seed = rng.randint(0, 10**6)
        argv = ["relation", "--m", str(m), "--n", str(n), "--c", str(c),
                "--d", str(d), "--trials", str(trials), "--seed", str(seed)]
        family, specialize = "x^2+a", None
        style = rng.randrange(3)
        if style == 1:
            specialize = f"a={rng.choice((-2, -1, 1, 2, '-3/4', '1/2'))}"
            argv += ["--specialize", specialize]
        elif style == 2:
            family = X.format_poly(_small_monic(rng, 2), "Q")
            argv += ["--family", family]
        if force:
            argv.append("--force")
        files = ()
        if rng.random() < 0.4:
            argv += ["--out", "relation.json"]
            files = ("relation.json",)
        argv += _fmt(rng, 0.4)
        legs = trials + 1 if admissible or force else 0
        jobs.append(Job("relation", argv, legs, files, spec={
            "tuple": (m, n, c, d), "trials": trials, "seed": seed,
            "family": family, "specialize": specialize, "force": force}))
    m, n, c, d, force = rng.choice(((0, 2, 0, 6, True), (1, 1, 0, 6, False)))
    argv = ["relation", "--m", str(m), "--n", str(n), "--c", str(c), "--d",
            str(d)] + (["--force"] if force else [])
    jobs.append(Job(
        "relation", argv, 21, oversize=True, spec={
            "tuple": (m, n, c, d), "trials": 20, "seed": 0,
            "family": "x^2+a", "specialize": None, "force": force}))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"grid": grid_jobs, "cyclo": cyclo_jobs,
            "dynatomic": dynatomic_jobs, "relation": relation_jobs}[workload](rng)
    # Spread each group of similar jobs over the whole pass, so that a slow
    # spell of the machine does not land on one group only.
    rng.shuffle(jobs)
    return jobs
