"""The three benchmark workloads: seeded inputs, one round of operations, checks.

Every workload makes its inputs from `random.Random(seed)` alone and
writes the files the program reads into a work directory. `ops` lists one
round of operations; a run repeats whole rounds, so every run attempts
the same mix. `errors` checks one result against `oracle`, which never
calls the program. The program is reached only through the module
objects in `api` and looked up at call time, so the tracer in `spans`
can wrap it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import random
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import oracle


def concept_block(name: str, properties) -> str:
    return f"concept {name}\n" + "".join(f"property {pid} {degree!r}\n" for pid, degree in properties)


class Workload:
    name = ""
    in_process = False  # cli-small only: call cli.run here instead of starting processes

    def crashed(self, result) -> bool:
        """True when a result that returned is still a failed operation."""
        return False


class ScoreDense(Workload):
    """`score` on an independent world of 22 properties, after loading.

    Full-table scans in `model` do nearly all the work: the 32 MiB table
    and its 16 MiB mask cache are far past any core's L2. F and W always
    hold `pair_props` properties between them, so every op makes the
    same number of scans; `mismatched` pairs of each round declare one
    degree off its marginal, so the mismatch-warning path runs.
    """

    name = "score-dense-s22"

    def __init__(self, s=22, pair_props=10, pairs=8, mismatched=2):
        self.s, self.pair_props, self.pairs, self.mismatched = s, pair_props, pairs, mismatched

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        ids = [f"d{i:02d}" for i in range(self.s)]
        marginals = {pid: round(rng.uniform(0.02, 0.3), 4) for pid in ids}
        off = set(rng.sample(range(self.pairs), self.mismatched))
        pairs = []
        for i in range(self.pairs):
            n_f = rng.randint(1, self.pair_props - 1)
            n_w = self.pair_props - n_f
            shared = rng.randint(0, min(n_f, n_w))
            chosen = rng.sample(ids, n_f + n_w - shared)
            f = {pid: marginals[pid] for pid in chosen[:n_f]}
            w = {pid: marginals[pid] for pid in chosen[n_f - shared :]}
            seeded = set()
            if i in off:
                name, props = rng.choice(((f"F{i}", f), (f"W{i}", w)))
                pid = rng.choice(sorted(props))
                props[pid] = round(props[pid] + 0.05, 4)
                seeded.add((name, pid))
            pairs.append(SimpleNamespace(f_name=f"F{i}", f=f, w_name=f"W{i}", w=w, mismatches=seeded))
        world = workdir / "world.txt"
        world.write_text("independent\n" + "".join(f"{pid} {mu!r}\n" for pid, mu in marginals.items()))
        concepts = workdir / "concepts.txt"
        concepts.write_text(
            "\n".join(concept_block(p.f_name, p.f.items()) + concept_block(p.w_name, p.w.items()) for p in pairs)
        )
        return SimpleNamespace(world=world, concepts=concepts, marginals=marginals, pairs=pairs)

    def load(self, api, inputs):
        world = api.files.load_world(inputs.world)
        concepts = api.files.load_concepts(inputs.concepts)
        return world, [(concepts[p.f_name], concepts[p.w_name]) for p in inputs.pairs]

    def ops(self, api, state):
        world, pairs = state
        return [lambda f=f, w=w: api.cli.build_score_report(world, f, w, algorithmic=True) for f, w in pairs]

    def expected(self, inputs):
        out = []
        for p in inputs.pairs:
            mu = inputs.marginals
            f_ids, w_ids = set(p.f), set(p.w)
            cells = oracle.independent_cells(
                [mu[i] for i in f_ids - w_ids], [mu[i] for i in w_ids - f_ids], [mu[i] for i in f_ids & w_ids]
            )
            scores = oracle.pair_scores(*cells)
            algo = oracle.algorithmic_scores(p.f.items(), p.w.items())
            others = {"estimate>1"} if scores["estimate"] > 1.0 else set()
            if abs(algo["mi"]) < oracle.NOISE_FLOOR_BITS:
                others.add("algorithmic-noise")
            out.append(SimpleNamespace(pair=p, scores=scores, algo=algo, others=others))
        return out

    def errors(self, want, result):
        report, code = result
        s, p = want.scores, want.pair
        errs = [] if code == 0 else [f"exit code {code}"]
        if (report.from_concept, report.to_concept) != (p.f_name, p.w_name):
            errs.append(f"scored {report.from_concept}->{report.to_concept}")
        for field, value in (
            ("exact_conditional", s["exact"]),
            ("shannon_estimate", s["estimate"]),
            ("mutual_information_shannon", s["mi"]),
        ):
            got = getattr(report, field)
            if not isinstance(got, float) or not oracle.close(got, value):
                errs.append(f"{field}={got!r}, expected {value!r}")
        if report.mutual_information_algorithmic != want.algo["mi"]:
            errs.append(f"algorithmic MI {report.mutual_information_algorithmic!r} != {want.algo['mi']!r}")
        if not math.isclose(report.algorithmic_estimate, want.algo["conditional"], rel_tol=1e-12):
            errs.append(f"algorithmic estimate {report.algorithmic_estimate!r} != {want.algo['conditional']!r}")
        mismatched = oracle.mismatch_warnings(report.warnings)
        rest = {w for w in report.warnings if not oracle.MISMATCH.match(w)}
        if mismatched != p.mismatches or rest != want.others or len(report.warnings) != len(p.mismatches | rest):
            errs.append(f"warnings {report.warnings!r}, expected mismatches {sorted(p.mismatches)} and {sorted(want.others)}")
        return errs


class Lattice(Workload):
    """`interaction_information` over seeded 12-variable subsets of a 16-property world.

    The 4,095 subset entropies of the lattice make up nearly all of each
    op; the one marginalization over 2**16 cells is small, so `model`'s
    dense scans play almost no part. The world is a product of
    independent blocks: one 12-bit parity block, one 2-bit copy pair and
    two biased single bits, so McGill's anchors give every answer.
    """

    name = "lattice-t12"

    def __init__(self, parity=12, pair=2, singles=2, t=12, subsets=8, whole=2):
        self.sizes = (parity, pair, singles)
        self.t, self.subsets, self.whole = t, subsets, whole

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        parity, pair, singles = self.sizes
        order = rng.sample([f"v{i:02d}" for i in range(sum(self.sizes))], sum(self.sizes))
        blocks = [order[:parity], order[parity : parity + pair]]
        bias = {pid: round(rng.uniform(0.1, 0.9), 2) for pid in order[parity + pair :]}
        states = [_parity_states(block) for block in blocks]
        states += [[([], 1.0 - b), ([pid], b)] for pid, b in bias.items()]
        lines = ["instances"]
        for combo in itertools.product(*states):
            members = [pid for held, _ in combo for pid in held]
            weight = math.prod(w for _, w in combo)
            lines.append(f"{','.join(members) or '-'} {weight!r}")
        world = workdir / "world.txt"
        world.write_text("\n".join(lines) + "\n")
        subsets = [rng.sample(blocks[0], self.t) for _ in range(self.whole)]
        while len(subsets) < self.subsets:
            pick = rng.sample(order, self.t)
            if set(pick) != set(blocks[0]):
                subsets.append(pick)
        rng.shuffle(subsets)
        return SimpleNamespace(world=world, blocks=blocks, singles=bias, subsets=subsets)

    def load(self, api, inputs):
        return api.files.load_world(inputs.world), inputs.subsets

    def ops(self, api, state):
        world, subsets = state
        return [lambda v=v: api.shannon.interaction_information(v, world) for v in subsets]

    def expected(self, inputs):
        return [
            SimpleNamespace(subset=tuple(sorted(v)), value=oracle.mcgill_anchor(v, inputs.blocks, inputs.singles))
            for v in inputs.subsets
        ]

    def errors(self, want, report):
        errs = [] if report.subset == want.subset else [f"subset {report.subset} != {want.subset}"]
        if not oracle.close(report.value, want.value):
            errs.append(f"interaction {report.value!r}, expected {want.value!r}")
        return errs


def _parity_states(block):
    """The 2**(t-1) equally weighted assignments of a block whose XOR is 0."""
    out = []
    for bits in range(1 << (len(block) - 1)):
        held = [pid for j, pid in enumerate(block[:-1]) if bits >> j & 1]
        if len(held) % 2:
            held.append(block[-1])
        out.append((held, 1.0))
    return out


class CliSmall(Workload):
    """One `python -m intension` process per op, cycling over every subcommand.

    This is what a shell user waits for: interpreter start and the numpy
    import dominate, and parsing, the closed forms and rendering make up
    the rest. All worlds have at most 12 properties and interaction
    subsets at most 6 variables, so no op strays far from that floor. The
    round ends with two invocations whose right answer is exit 2 with one
    `error:` line; the program crashes on both today (see CHANGES.md).
    With `in_process`, the same round runs through `cli.run` in this
    process instead, which is how the traced run sees its layers.
    """

    name = "cli-small"

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        case = []

        # independent world, at most 12 properties; degrees match the marginals
        ind_ids = [f"i{j:02d}" for j in range(rng.randint(8, 12))]
        mu = {pid: round(rng.uniform(0.05, 0.5), 4) for pid in ind_ids}
        f = {pid: mu[pid] for pid in rng.sample(ind_ids, rng.randint(2, 4))}
        w = {pid: mu[pid] for pid in rng.sample(ind_ids, rng.randint(2, 4))}
        ind = _write(workdir / "ind.txt", "independent\n" + "".join(f"{p} {m!r}\n" for p, m in mu.items()))
        ind_c = _write(workdir / "ind_concepts.txt", concept_block("F", f.items()) + concept_block("W", w.items()))
        cells = oracle.independent_cells(
            [mu[i] for i in set(f) - set(w)], [mu[i] for i in set(w) - set(f)], [mu[i] for i in set(f) & set(w)]
        )
        score = ["score", "--world", ind, "--concepts", ind_c, "--from", "F"]
        for fmt, compressor in (("text", None), ("json", "deflate"), ("text", "identity")):
            extra = [] if compressor is None else ["--algorithmic"] + (["--compressor", compressor] if compressor == "identity" else [])
            algo = compressor and oracle.algorithmic_scores(f.items(), w.items(), compressor)
            case.append((score + ["--to", "W", *extra, "--format", fmt], _score_want(fmt, "F", "W", cells, algo)))

        # exclusive world: the exact conditional is k/n
        n, m, k = _counts(rng)
        s = n + m - k
        universe = [f"p{i + 1}" for i in range(s)]
        excl = _write(workdir / "excl.txt", f"exclusive {n} {m} {k}\n")
        f_x, w_x = [(p, 1.0 / s) for p in universe[:n]], [(p, 1.0 / s) for p in universe[s - m :]]
        excl_c = _write(workdir / "excl_concepts.txt", concept_block("F", f_x) + concept_block("W", w_x))
        cells = (k / s, (n - k) / s, (m - k) / s, 0.0)
        argv = ["score", "--world", excl, "--concepts", excl_c, "--from", "F", "--to", "W"]
        argv += ["--algorithmic", "--compressor", "deflate", "--format", "json"]
        case.append((argv, _score_want("json", "F", "W", cells, oracle.algorithmic_scores(f_x, w_x))))

        # instances world where x and y always co-occur: exact 1, estimate > 1;
        # q never holds, so conditioning on it exits 3
        a, b = rng.randint(6, 19), rng.randint(1, 5)
        p = a / (a + b)
        corr = _write(workdir / "corr.txt", f"instances\nx,y {a}\nz {b}\nq 0\n")
        corr_c = _write(
            workdir / "corr_concepts.txt",
            concept_block("F", [("x", p)]) + concept_block("W", [("y", p)]) + concept_block("N", [("q", 0.0)]),
        )
        argv = ["score", "--world", corr, "--concepts", corr_c]
        case.append((argv + ["--from", "F", "--to", "W"], _score_want("text", "F", "W", (p, 0.0, 0.0, 1 - p))))
        case.append(
            (argv + ["--from", "N", "--to", "W", "--format", "json"], _score_want("json", "N", "W", (0.0, 0.0, p, 1 - p), code=3))
        )
        case.append((score + ["--to", "missing"], {"code": 2}))

        # closed forms
        n, m, k = _counts(rng)
        s = n + m - k
        fields = {"n": n, "m": m, "k": k, "s": s, "p": 1.0 / s, "shannon": k / n, "algorithmic": (m / s) * (k / n)}
        fields |= {"algorithmic_mutual_information": math.log2(k / n), "discrepancy": k / n - (m / s) * (k / n)}
        for fmt in ("text", "json"):
            argv = ["exclusive", "--n", str(n), "--m", str(m), "--k", str(k), "--format", fmt]
            case.append((argv, {"code": 0, "format": fmt, "fields": fields}))
        size = rng.randint(4, 10)
        ext_f = sorted(rng.sample(range(1, size + 1), rng.randint(1, size)))
        ext_w = sorted(rng.sample(range(1, size + 1), rng.randint(1, size)))
        share = len(set(ext_f) & set(ext_w)) / len(ext_f)
        fields = {"extensional": share, "intensional": share, "match": True}
        for fmt in ("text", "json"):
            argv = ["extensional", "--universe", str(size), "--f", _ids(ext_f), "--w", _ids(ext_w), "--format", fmt]
            case.append((argv, {"code": 0, "format": fmt, "fields": fields, "sep": " "}))

        # interaction: -1 bit on a 3-variable parity world, 0 on independent properties
        names = [f"x{n}" for n in rng.sample(range(100), 3)]
        weight = rng.randint(1, 5)
        rows = [["-"], names[1:], [names[0], names[2]], names[:2]]
        rng.shuffle(rows)
        parity = _write(workdir / "parity.txt", "instances\n" + "".join(f"{','.join(r)} {weight}\n" for r in rows))
        for fmt in ("text", "json"):
            argv = ["interaction", "--world", parity, "--vars", ",".join(rng.sample(names, 3)), "--format", fmt]
            case.append((argv, _interaction_want(fmt, names, -1.0)))
        subset = rng.sample(ind_ids, rng.randint(3, 6))
        case.append((["interaction", "--world", ind, "--vars", ",".join(subset), "--format", "json"], _interaction_want("json", subset, 0.0)))

        # seed-independent faults: 40 properties, and weights whose sum overflows
        wide = _write(workdir / "wide.txt", "instances\n" + ",".join(f"g{i:02d}" for i in range(1, 41)) + " 1\n- 1\n")
        case.append((["interaction", "--world", wide, "--vars", "g01,g02"], {"code": 2}))
        huge = _write(workdir / "huge.txt", "instances\na 1e308\nb 1e308\n")
        case.append((["interaction", "--world", huge, "--vars", "a,b"], {"code": 2}))
        return SimpleNamespace(case=case)

    def load(self, api, inputs):
        return [argv for argv, _ in inputs.case]

    def ops(self, api, argvs):
        if self.in_process:
            return [lambda argv=argv: _in_process(api.cli.run, argv) for argv in argvs]
        return [lambda argv=argv: _process(argv) for argv in argvs]

    def expected(self, inputs):
        return [want for _, want in inputs.case]

    def errors(self, want, result):
        return oracle.cli_errors(want, *result)

    def crashed(self, result):
        code, _, err = result
        return code not in (0, 2, 3) or "Traceback" in err


def _write(path, text) -> str:
    path.write_text(text)
    return str(path)


def _ids(values) -> str:
    return ",".join(map(str, values))


def _counts(rng):
    n, m = rng.randint(2, 6), rng.randint(2, 6)
    return n, m, rng.randint(1, min(n, m))


def _score_want(fmt, f, w, cells, algo=None, code=0):
    scores = oracle.pair_scores(*cells)
    warnings = ["estimate>1"] if scores["estimate"] > 1.0 else []
    if algo and abs(algo["mi"]) < oracle.NOISE_FLOOR_BITS:
        warnings.append("algorithmic-noise")
    fields = {
        "from_concept": f,
        "to_concept": w,
        "exact_conditional": "undefined" if scores["exact"] is None else scores["exact"],
        "shannon_estimate": scores["estimate"],
        "algorithmic_estimate": algo["conditional"] if algo else "skipped",
        "mutual_information_shannon": scores["mi"],
        "mutual_information_algorithmic": algo["mi"] if algo else "skipped",
        "warnings": sorted(warnings),
    }
    return {"code": code, "format": fmt, "fields": fields}


def _interaction_want(fmt, names, value):
    fields = {"vars": sorted(names), "interaction_information": value, "convention": "McGill-inclusion-exclusion"}
    return {"code": 0, "format": fmt, "fields": fields}


def _process(argv):
    proc = subprocess.run([sys.executable, "-m", "intension", *argv], capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {cls.name: cls for cls in (ScoreDense, Lattice, CliSmall)}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the input files one workload makes from a seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory to write into")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    inputs = WORKLOADS[args.workload]().prepare(args.seed, args.out)
    if args.workload == CliSmall.name:
        cycle = "".join(f"exit {want['code']}: intension {shlex.join(argv)}\n" for argv, want in inputs.case)
        (args.out / "cycle.txt").write_text(cycle)
    print("\n".join(str(path) for path in sorted(args.out.iterdir())))
