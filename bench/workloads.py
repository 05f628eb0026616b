"""The three benchmark workloads: seeded inputs, one timed pass, known-answer checks.

Each workload is a closed loop with one client: an operation starts only
after the previous one has returned.  ``setup`` builds the inputs from the
seed and writes any files.  ``run_pass`` times every request from outside,
then compares the outputs with answers from ``known``, so checking never
counts as measured time.  A pass is kept short (a few seconds at most), so
that a run repeats every request many times.

Sizes are stratified: each family draws from fixed slices of its size range
instead of independently, and each draw sits in the middle tenth of its
slice, so the sizes move with the seed but the work of a pass barely does
(runs on different seeds are compared with each other, and a draw anywhere
in a slice of 200 changed a pass by a quarter between seeds).  The slices of
200 for the large consecutive sets alternate the residues 0 and 1 mod 4, and
the last one (1001..1200, residue 1) is always drawn, so the known defect of
consecutive ``k = 1 (mod 4)``, ``k >= ~990`` (``RecursionError``) is drawn
on every seed, never on some seeds only.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

import known

perf_counter = time.perf_counter


@dataclasses.dataclass
class Op:
    """One operation: its label, its input and its known answer."""
    label: str
    item: object
    expected: object = None


@dataclasses.dataclass
class PassResult:
    wall_s: float
    request_s: list       # each request timed from outside, in input order
    op_s: list            # each operation's time, in input order
    attempted: int
    failures: list        # (label, kind, wrong_answer)


JITTER = 0.1  # the share of a slice, around its middle, that draws come from


def _stratified(rng: random.Random, lo: int, hi: int, slices: int, mod: int, residues,
                alternate: bool = False) -> list[int]:
    """Values congruent to ``residues`` mod ``mod``, near the middles of equal slices of [lo, hi].

    Each slice takes every residue; with ``alternate`` each slice takes one
    residue, cycling through them.
    """
    out = []
    for i in range(slices):
        a = lo + (hi - lo + 1) * i // slices
        b = lo + (hi - lo + 1) * (i + 1) // slices - 1
        at = 0.5 + JITTER * (rng.random() - 0.5)
        for r in (residues[i % len(residues)],) if alternate else residues:
            choices = range(a + (r - a) % mod, b + 1, mod)
            out.append(choices[min(len(choices) - 1, int(at * len(choices)))])
    return out


def _quiet_main(api, argv) -> tuple[int, str]:
    """``hamdec.cli.main`` with its output captured; argparse's exit becomes the code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = api.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _timed(ops, run_one, api) -> tuple[list, list, float]:
    """Run every op once in order; exceptions become results, never escape."""
    outcomes, times = [], []
    started = perf_counter()
    for op in ops:
        api.begin_op(op.label)
        t0 = perf_counter()
        try:
            outcome = run_one(op)
        except Exception as exc:  # the benchmark must survive any program fault
            outcome = exc
        times.append(perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes, times, perf_counter() - started


def _raised(outcome) -> str | None:
    return f"raised {type(outcome).__name__}" if isinstance(outcome, Exception) else None


# --------------------------------------------------------------------- certify

@dataclasses.dataclass(frozen=True)
class CertifySizes:
    max_k: int = 1200          # consecutive, skip-k and even-run sizes
    max_period: int = 100_000  # one-two-c and 4-valent periods
    small_k: int = 120         # the small draws, which set the median operation
    small_period: int = 1200
    small_slices: int = 12
    slices: int = 6            # of 200 for the large consecutive sets; the
                               # lower half and the last one are drawn
    lift_ks: tuple = (3, 5, 7, 9, 11, 13)
    extra: int = 6             # non-admissible and outside-every-family draws each


def _lift_set(rng: random.Random, k: int, lengths=None) -> tuple[int, ...]:
    """{a_1..a_{k-1}, k} with distinct a_i not divisible by k and the parity fixed."""
    if lengths is None:
        lengths = [rng.randrange(1, k // 2 + 1) for _ in range(k - 1)]
    mags = set()
    for length in lengths:
        r = length if rng.random() < 0.5 else k - length
        a = r + k * rng.randrange(4)
        while a in mags:
            a += k
        mags.add(a)
    mags = sorted(mags)
    if (sum(mags) + k) % 2 != k % 2:
        mags[-1] += k
    return tuple(sorted((*mags, k)))


def _outside_every_family(rng: random.Random) -> tuple[int, ...]:
    while True:
        s = tuple(sorted(rng.sample(range(1, 61), rng.randrange(3, 9))))
        if known.admissible(s) and known.family(s) is None:
            return s


def _non_admissible(rng: random.Random, max_k: int) -> list[tuple[int, ...]]:
    sets = [tuple(range(1, k + 1)) for k in _stratified(rng, 2, max_k, 1, 4, (2, 3))]
    g = rng.choice((2, 3, 5))
    sets.append(tuple(sorted({g * rng.randrange(1, 40) for _ in range(4)} | {g})))
    while len(sets) < 6:
        s = tuple(sorted(rng.sample(range(1, 61), rng.randrange(2, 8))))
        if math.gcd(*s) == 1 and not known.admissible(s):
            sets.append(s)
    return sets


def certify_sets(seed: int, sizes: CertifySizes = CertifySizes()) -> list[tuple[str, tuple[int, ...]]]:
    """The seeded draw: all six families, small and large, plus sets no family covers."""
    rng = random.Random(seed)
    max_k, small, slices, many = sizes.max_k, sizes.small_k, sizes.slices, sizes.small_slices
    large = _stratified(rng, 1, max_k, slices, 4, (0, 1), alternate=True)
    drawn = []
    for k in (_stratified(rng, 1, small, many, 4, (0, 1), alternate=True)
              + large[:slices // 2] + large[-1:]):
        drawn.append(("consecutive", tuple(range(1, k + 1))))
    for k in (_stratified(rng, 2, small, many, 4, (2, 3), alternate=True)
              + _stratified(rng, 2, max_k, 2, 4, (2, 3), alternate=True)):
        drawn.append(("skip-k", (*range(1, k), k + 1)))
    for t in (_stratified(rng, 2, small, many, 4, (0, 2), alternate=True)
              + _stratified(rng, 2, max_k, 2, 4, (0, 2), alternate=True)):
        drawn.append(("even-run", (1, *range(2, 2 * t + 1, 2))))
    # The large one-two-c and 4-valent sets come from the top tenth of the
    # period range: their periods set the peak RSS, so it must not swing
    # between seeds.
    top_c, top_b = 2 * sizes.max_period // 3, sizes.max_period // 2
    for c in (_stratified(rng, 4, 2 * sizes.small_period // 3, many, 2, (0,))
              + _stratified(rng, 9 * top_c // 10, top_c, 1, 2, (0,))):
        drawn.append(("one-two-c", (1, 2, c)))
    for b in (_stratified(rng, 3, sizes.small_period // 2, many, 2, (1,))
              + _stratified(rng, 9 * top_b // 10, top_b, 1, 2, (1,))):
        a = rng.randrange(1, b, 2)
        while math.gcd(a, b) != 1:
            a = rng.randrange(1, b, 2)
        drawn.append(("four-valent", (a, b)))
    for k in sizes.lift_ks:
        drawn.append(("cyclic-lift", _lift_set(rng, k)))
    drawn.extend(("non-admissible", s) for s in _non_admissible(rng, max_k)[:sizes.extra])
    drawn.extend(("outside", _outside_every_family(rng)) for _ in range(sizes.extra - 1))
    exhausted = rng.choice(sorted(m for m in known.K9_EXHAUSTED if m != (3,) * 8))
    drawn.append(("k9-exhausted", _lift_set(rng, 9, exhausted)))
    return drawn


class Certify:
    """``hamdec construct --set S --out F``, then reload F and re-verify it."""

    name = "certify"
    pooled = False
    op_timing = "per connection set, from outside"
    sizes = CertifySizes()

    def setup(self, seed: int, work: Path, hd, jobs: int) -> list[Op]:
        ops = []
        for i, (fam, s) in enumerate(certify_sets(seed, self.sizes)):
            argv = ["construct", "--set", ",".join(map(str, s)),
                    "--out", str(work / f"cert-{i}.json")]
            ops.append(Op(f"{fam}#{i}(|S+|={len(s)}, max={s[-1]})", (s, argv),
                          known.expected_construct_exit(s)))
        self._seen: dict[int, bytes] = {}
        return ops

    def run_pass(self, ops: list[Op], api) -> PassResult:
        def run_one(op):
            code, _ = _quiet_main(api, op.item[1])
            if code != known.EXIT_OK:
                return code, None
            try:
                _, cert = api.load_certificate(op.item[1][-1])
                return code, api.verify_certificate(cert).accepted
            except Exception as exc:  # a success whose file cannot be re-checked is wrong
                return code, exc

        outcomes, times, wall = _timed(ops, run_one, api)
        failures = []
        for i, (op, outcome) in enumerate(zip(ops, outcomes)):
            kind = _raised(outcome)
            if kind is None:
                kind = self._check(i, op, *outcome)
            if kind:
                failures.append((op.label, kind, not kind.startswith("raised")))
        return PassResult(wall, times, times, len(ops), failures)

    def _check(self, i, op, code, accepted) -> str | None:
        if code != op.expected:
            return f"exit {code}, expected {op.expected}"
        if code != known.EXIT_OK:
            return None
        if isinstance(accepted, Exception):
            return f"re-check of the written certificate raised {type(accepted).__name__}"
        if not accepted:
            return "re-check rejected the written certificate"
        raw = Path(op.item[1][-1]).read_bytes()
        if self._seen.get(i) == raw:
            return None
        doc = json.loads(raw)
        if tuple(doc["connection_set"]) != op.item[0] or not _valid_doc(doc):
            return "written certificate is invalid"
        self._seen[i] = raw
        return None


# ------------------------------------------------------------------ crosscheck

@dataclasses.dataclass(frozen=True)
class CrosscheckSizes:
    per_family: int = 6   # valid certificates per family
    max_k: int = 32       # |S+| for the families with |S+| offsets
    max_period: int = 120  # for 4-valent and one-two-c, which have 2 or 3 offsets


EXTRA_WINDOW_PERIODS = 3  # window sizes used above the smallest the oracle allows


def _valid_corpus(hd, rng: random.Random, sizes: CrosscheckSizes) -> list:
    """Valid certificates with moderate periods, sizes stratified per family."""
    n, k, m = sizes.per_family, sizes.max_k, sizes.max_period
    certs = []
    for b in _stratified(rng, 3, m // 2, n, 2, (1,)):
        a = rng.randrange(1, b, 2)
        while math.gcd(a, b) != 1:
            a = rng.randrange(1, b, 2)
        certs.append(hd.construct_4valent(a, b))
    certs += [hd.construct_consecutive(v)
              for v in _stratified(rng, 4, k, n, 4, (0, 1), alternate=True)]
    certs += [hd.construct_skip_k(v) for v in _stratified(rng, 2, k, n, 4, (2, 3), alternate=True)]
    certs += [hd.construct_even_run(t) for t in _stratified(rng, 2, k, n, 2, (0,))]
    certs += [hd.construct_one_two_c(c) for c in _stratified(rng, 4, 2 * m // 3, n, 2, (0,))]
    for lift_k in (3, 5, 7, 9, 11, 13)[:n]:
        s = _lift_set(rng, lift_k)
        while known.expected_construct_exit(s) != known.EXIT_OK or known.family(s) != "cyclic-lift":
            s = _lift_set(rng, lift_k)
        certs.append(hd.construct(hd.ConnectionSet(s)))
    return certs


def _document(s_plus, period, vertices, offsets) -> dict:
    return {"schema_version": "1", "connection_set": list(s_plus), "period": period,
            "starter_vertices": list(vertices), "offsets": list(offsets),
            "provenance": "benchmark corpus"}


def _mutants(doc: dict, rng: random.Random) -> list[tuple[str, dict]]:
    """Vertex swap, offset change, splice, and a repeated vertex."""
    vs, offs, n = doc["starter_vertices"], doc["offsets"], doc["period"]
    out = []
    i, j = rng.sample(range(len(vs)), 2)
    swapped = list(vs)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    out.append(("swap", {**doc, "starter_vertices": swapped}))
    changed = list(offs)
    changed[rng.randrange(len(changed))] = rng.randrange(n)
    out.append(("offset", {**doc, "offsets": changed}))
    if len(vs) > 2:
        spliced = list(vs)
        del spliced[rng.randrange(1, len(vs) - 1)]
        out.append(("splice", {**doc, "starter_vertices": spliced}))
    repeated = list(vs)
    repeated[j] = repeated[i]
    out.append(("repeat", {**doc, "starter_vertices": repeated}))
    return out


def _valid_doc(doc: dict) -> bool:
    return known.certificate_valid(doc["connection_set"], doc["period"],
                                   doc["starter_vertices"], doc["offsets"])


class Crosscheck:
    """``hamdec verify`` on valid certificates and mutants, ``hamdec figure`` on the valid ones."""

    name = "crosscheck"
    pooled = False
    op_timing = "per CLI call, from outside"
    sizes = CrosscheckSizes()

    def setup(self, seed: int, work: Path, hd, jobs: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for c, cert in enumerate(_valid_corpus(hd, rng, self.sizes)):
            doc = _document(cert.connection_set.s_plus, cert.period,
                            cert.starter.vertices, cert.offsets)
            n, max_s = cert.period, cert.connection_set.s_plus[-1]
            smallest = max(3, -(-2 * max_s // n), -(-max_s // n) + 1)
            # Each certificate's files take every window size in turn, in an
            # order set by the certificate's place, not by the seed: drawn from
            # the seed, the order moved the slowest calls, and op_tail_ms with
            # them, by a fifth between seeds.
            for i, (kind, d) in enumerate([("valid", doc), *_mutants(doc, rng)]):
                path = work / f"c{c}-{kind}.json"
                path.write_text(json.dumps(d, indent=2) + "\n", encoding="utf-8")
                periods = smallest + (c + i) % (EXTRA_WINDOW_PERIODS + 1)
                argv = ["verify", "--cert", str(path), "--window-periods", str(periods)]
                ops.append(Op(f"verify {kind} c{c}", ("verify", argv), _valid_doc(d)))
            # Figures go to stdout: the passes then write no files, so disk
            # write-back never stalls a timed operation.
            for fmt in ("svg", "dot"):
                argv = ["figure", "--cert", str(work / f"c{c}-valid.json"),
                        f"--range={-n}..{2 * n}", "--format", fmt]
                ops.append(Op(f"figure {fmt} c{c}", ("figure", argv), True))
        self._figures: dict[str, str] = {}
        return ops

    def run_pass(self, ops: list[Op], api) -> PassResult:
        outcomes, times, wall = _timed(ops, lambda op: _quiet_main(api, op.item[1]), api)
        failures = []
        for op, outcome in zip(ops, outcomes):
            kind = _raised(outcome)
            if kind is None:
                kind = self._check(op, *outcome)
            if kind:
                failures.append((op.label, kind, not kind.startswith("raised")))
        return PassResult(wall, times, times, len(ops), failures)

    def _check(self, op, code, stdout) -> str | None:
        if op.item[0] == "figure":
            if code != known.EXIT_OK:
                return f"exit {code}, expected 0"
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if self._figures.setdefault(op.label, digest) != digest:
                return "figure bytes differ between repeats"
            return None
        exact = oracle = None
        for line in stdout.splitlines():
            if line.startswith("exact check: "):
                exact = line.split(": ", 1)[1].split(" ", 1)[0]
            elif line.startswith("window oracle ("):
                oracle = line.split(": ", 1)[1]
        want = "accepted" if op.expected else "rejected"
        if code != (known.EXIT_OK if op.expected else known.EXIT_FAIL):
            return f"exit {code}, expected {0 if op.expected else 1}"
        if exact != want:
            return f"exact verifier {exact}, expected {want}"
        if oracle != want and not (oracle is None and "repeat" in op.label):
            return f"window oracle {oracle}, exact verifier {exact}"
        return None


# ----------------------------------------------------------------------- sweep

class Sweep:
    """Sweeps over Z_p: a full p = 13 and a sampled p = 17 sweep on the
    process pool, then a sampled p = 19 sweep in one process.

    On the pool the Z_p path searches do most of the work; the p = 19 sample
    enumerates all 1,562,275 multisets to keep 50, so there the sweep's own
    enumeration does.  p = 23, which enumerates 64.5M multisets, takes over
    10 s, too long to repeat within one run.

    The inputs do not depend on the seed: every sample uses seed 0.  Drawn
    from the benchmark's seed, the search work swung between seeds (460k to
    510k nodes for the p = 17 sample; 0.24 to 0.48 s of search for 200
    multisets at p = 19, as one multiset can take a hundred times the median
    search).
    """

    name = "sweep"
    pooled = True         # jobs = min(2, nproc) workers for the first two calls
    op_timing = "per multiset, the search time the sweep reports"
    full_p, sample_p, sample_n = 13, 17, 1000
    single_p, single_n = 19, 50

    def calls(self, jobs: int) -> list[dict]:
        return [dict(p=self.full_p, sample=None, seed=0, jobs=jobs),
                dict(p=self.sample_p, sample=self.sample_n, seed=0, jobs=jobs),
                dict(p=self.single_p, sample=self.single_n, seed=0, jobs=1)]

    def setup(self, seed: int, work: Path, hd, jobs: int) -> list[Op]:
        ops = []
        for call in self.calls(jobs):
            expected = known.expected_sweep_multisets(call["p"], call["sample"], call["seed"])
            label = f"sweep(p={call['p']}, sample={call['sample']}, jobs={call['jobs']})"
            ops.append(Op(label, call, expected))
        self._seen: dict[str, tuple] = {}
        return ops

    def run_pass(self, ops: list[Op], api) -> PassResult:
        def run_one(op):
            c = op.item
            return api.sweep(c["p"], sample=c["sample"], seed=c["seed"], jobs=c["jobs"])

        outcomes, times, wall = _timed(ops, run_one, api)
        failures, searches = [], []
        for op, report in zip(ops, outcomes):
            kind = _raised(report)
            if kind:
                failures.extend((f"{op.label} {m}", kind, False) for m in op.expected)
                searches.extend([math.nan] * len(op.expected))
                continue
            if [tuple(m) for m, _ in report.entries] != op.expected:
                failures.extend((f"{op.label} {m}", "not decided as requested", True)
                                for m in op.expected)
                searches.extend([math.nan] * len(op.expected))
                continue
            failures.extend(self._check(op, report))
            searches.extend(o.elapsed for _, o in report.entries)
        attempted = sum(len(op.expected) for op in ops)
        # A multiset's search runs in a pool worker, out of sight of any
        # outside timer: its time is the search time the sweep reports (NaN
        # when the sweep failed).
        return PassResult(wall, times, searches, attempted, failures)

    def _check(self, op, report) -> list:
        p = op.item["p"]
        results = tuple((o.witness, o.nodes_expanded) for _, o in report.entries)
        if self._seen.get(op.label) == results:
            return []
        bad = [(f"{op.label} {m}", "exhausted, expected found" if o.witness is None
                else "invalid witness", True)
               for m, o in report.entries if not known.is_hamilton_witness(p, m, o.witness)]
        if not bad:
            self._seen[op.label] = results
        return bad


WORKLOADS = {w.name: w for w in (Certify, Crosscheck, Sweep)}
