"""Seeded inputs and jobs for the four workloads, plus the fixed probe jobs.

Search and realization jobs run through the ``sofic`` entry point
(``cli.main`` in-process, on chunk files written here); the supp scan uses
public library calls.  Every call goes through a module attribute looked up
at call time, so the tracer's wrappers see it.

For the search and realization workloads the seed renames the elements: the
search order depends only on the table's structure, so the work, and the
output once names are mapped back, is the same at every seed.  The supp scan
draws its carriers from the seed.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import check

DEFAULT_SEED = 1
WORKLOADS = ("search-dense", "search-sparse", "realize-deep", "supp-scan")

# Full group chunks Z_m at r = m, each certified at degree m.
DENSE = (7, 8)
# Five-element partial traces S of Z_m at r = 3; few products are defined.
SPARSE = (
    (12, (0, 1, 2, 3, 5)), (10, (0, 1, 2, 4, 5)), (9, (0, 1, 6, 7, 8)),
    (12, (0, 4, 6, 9, 10)), (14, (0, 1, 4, 5, 8)), (12, (0, 2, 3, 5, 9)),
    (14, (0, 5, 11, 12, 13)), (13, (0, 1, 3, 4, 10)), (12, (0, 6, 7, 9, 11)),
    (12, (0, 3, 9, 10, 11)), (10, (0, 3, 5, 6, 8)), (13, (0, 3, 7, 8, 9)),
)


def cyclic_names(names: tuple[str, ...], op: Callable[[int, int], int]):
    """A group on ``names`` (unit first) from an operation on their indices."""
    return names, lambda a, b: names[op(names.index(a), names.index(b))]


Z3 = cyclic_names(("1", "h", "h2"), lambda i, j: (i + j) % 3)
KLEIN = cyclic_names(("1", "a", "b", "c"), lambda i, j: i ^ j)
REALIZE = (("z3", Z3, 24), ("klein", KLEIN, 16))
SCAN_CARRIERS = 50
SCAN_N = 300
GADGET_HORIZON = 10_000


@dataclass
class Job:
    key: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    canonical: Callable[[dict], list[str]]
    golden: bool = True  # False when the outputs depend on the seed


class Inputs:
    """Writes a workload's input files and builds its job list."""

    def __init__(self, workdir: str, tag: str, seed: int, canonical_names: bool = False):
        self.workdir = workdir
        self.rng = random.Random(f"{tag}/{seed}")
        self.canonical_names = canonical_names
        self.back: dict[str, str] = {}  # seeded name -> canonical name

    def path(self, name: str) -> str:
        os.makedirs(self.workdir, exist_ok=True)
        return os.path.join(self.workdir, name)

    def names(self, canonical: tuple[str, ...]) -> dict[str, str]:
        if self.canonical_names:
            return {c: c for c in canonical}
        out = {}
        for c in canonical:
            name = f"v{self.rng.getrandbits(40):010x}"
            while name in self.back:
                name = f"v{self.rng.getrandbits(40):010x}"
            out[c] = name
            self.back[name] = c
        return out

    def chunk_text(self, elements: tuple[str, ...], mult: Callable[[str, str], str]) -> str:
        """Chunk text of the partial product induced on ``elements``, renamed."""
        rename = self.names(elements)
        members = set(elements)
        lines = [f"{'unit' if i == 0 else 'elem'} {rename[e]}" for i, e in enumerate(elements)]
        for a in elements:
            for b in elements:
                v = mult(a, b)
                if v in members:
                    lines.append(f"{rename[a]} * {rename[b]} = {rename[v]}")
        return "\n".join(lines) + "\n"

    def chunk_file(self, fname: str, elements: tuple[str, ...],
                   mult: Callable[[str, str], str]) -> str:
        path = self.path(fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.chunk_text(elements, mult))
        return path


def sofic(*argv: str) -> tuple[int, str]:
    """One in-process ``sofic`` run at one worker; returns (exit code, stdout)."""
    from soficapprox import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["--workers", "1", *argv])
    return code, out.getvalue()


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- job kinds ----------------------------------------------------------------------

def search_job(inp: Inputs, key: str, elements: tuple[str, ...], mult, r: int,
               n_max: int) -> Job:
    chunk = inp.chunk_file(f"{key.replace('/', '_')}.chunk", elements, mult)
    cert = inp.path(f"{key.replace('/', '_')}.cert")

    def run() -> dict:
        code, report = sofic("profile", "--chunk", chunk, "--r", str(r), "--n-max",
                             str(n_max), "--emit-cert", cert)
        text = read(cert) if code == 0 else ""
        vcode, verify = sofic("cert", "verify", cert)
        return {"codes": [code, vcode], "report": report, "cert": text, "verify": verify}

    def check_out(out: dict) -> list[str]:
        if out["codes"] != [0, 0]:
            return [f"exit codes {out['codes']}"]
        problems = check.check_certificate(out["cert"])
        problems += check.check_profile_stdout(out["report"], out["cert"])
        if not out["verify"].startswith("certificate ok: "):
            problems.append("cert verify did not accept the certificate")
        return problems

    def canonical(out: dict) -> list[str]:
        return [check.canon_text(out[k], inp.back) for k in ("report", "cert", "verify")]

    return Job(key, run, check_out, canonical)


def realize_jobs(inp: Inputs, name: str, group, depth: int) -> list[Job]:
    """``sofic realize --emit``, then ``sofic supp`` over ``blocksum:`` carriers
    linked to the emitted file, at the last stage's degree."""
    elements, mult = group
    chunk = inp.chunk_file(f"{name}.chunk", elements, mult)
    emitted = inp.path(f"{name}.json")
    gchunk = inp.path(f"{name}.gchunk")
    key = f"{name}@depth{depth}"

    def run_realize() -> dict:
        code, report = sofic("realize", "--chunk", chunk, "--depth", str(depth),
                             "--emit", emitted)
        return {"codes": [code], "report": report, "json": read(emitted) if code == 0 else ""}

    def check_realize(out: dict) -> list[str]:
        if out["codes"] != [0]:
            return [f"exit codes {out['codes']}"]
        payload = json.loads(out["json"])
        problems = check.check_realization(payload)
        if payload["depth"] != depth or not out["report"].endswith("slow = slow\n"):
            problems.append("realization is not slow to the requested depth")
        return problems

    def run_supp() -> dict:
        payload = json.loads(read(emitted))
        bound = payload["g"]
        degree = payload["stages"][-1]["degree"]
        c_elements, unit, _ = check.parse_chunk(payload["chunk"])
        lines = [f"chunk {os.path.basename(chunk)}"]
        lines += [f"carrier {e} = blocksum:{os.path.basename(emitted)}"
                  for e in c_elements if e != unit]
        lines.append(f"bound = {bound}")
        with open(gchunk, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code, report = sofic("supp", "--gchunk", gchunk, "--n", str(degree), "--r", "2")
        return {"codes": [code], "report": report, "bound": bound}

    def check_supp(out: dict) -> list[str]:
        if out["codes"] != [0]:
            return [f"exit codes {out['codes']}"]
        return check.check_supp_stdout(out["report"], out["bound"])

    return [
        Job(f"realize/{key}", run_realize, check_realize,
            lambda out: [check.canon_text(out["report"], inp.back),
                         check.canon_realization(out["json"], inp.back)]),
        Job(f"supp/{key}", run_supp, check_supp, lambda out: [out["report"]]),
    ]


def bounded_finitary(rng: random.Random, c: int, span: int) -> list[int]:
    """Permutation shuffling within consecutive blocks of size <= c + 1."""
    images: list[int] = []
    start = 0
    while start < span:
        size = min(rng.randint(1, c + 1), span - start)
        block = list(range(start, start + size))
        rng.shuffle(block)
        images.extend(block)
        start += size
    return images


def scan_job(inp: Inputs, index: int, n_top: int, golden: bool) -> Job:
    """supp_quality at r = 2 for every n <= n_top, on one carrier bounded by n + c."""
    rng = inp.rng
    c = rng.randint(1, 40)
    span = rng.randint(2 * c + 2, 200)
    images = bounded_finitary(rng, c, span)
    inverse = [0] * span
    for x, v in enumerate(images):
        inverse[v] = x
    carriers = {"r": images}
    table = {("1", "1"): "1", ("1", "r"): "r", ("r", "1"): "r"}
    if inverse == images:
        table[("r", "r")] = "1"
    else:
        carriers["ri"] = inverse
        table.update({("1", "ri"): "ri", ("ri", "1"): "ri", ("r", "ri"): "1", ("ri", "r"): "1"})
        if [images[images[x]] for x in range(span)] == inverse:
            table.update({("r", "r"): "ri", ("ri", "ri"): "r"})
    elements = ("1",) + tuple(carriers)
    sampled = set(rng.sample(range(1, n_top + 1), 12))

    def run() -> dict:
        from soficapprox import chunk, growth, lazyperm
        gc = lazyperm.build_gchunk(
            chunk.Chunk(elements, "1", dict(table)),
            {e: lazyperm.finitary(imgs) for e, imgs in carriers.items()},
            growth.Affine(c), horizon=320)
        rows = []
        for n in range(1, n_top + 1):
            rep = lazyperm.supp_quality(gc, n, 2)
            exp = rep.quality.expansiveness
            rows.append((n, rep.m_star, rep.quality.defect.numerator,
                         rep.quality.defect.denominator,
                         None if exp is None else f"{exp.numerator}/{exp.denominator}",
                         rep.defect_bound_holds, rep.separation_hypothesis,
                         rep.conclusion_expected, rep.expansiveness_ok))
        return {"rows": rows}

    def check_out(out: dict) -> list[str]:
        problems = []
        for n, m_star, num, den, exp, *_ in out["rows"]:
            want = n - c if n >= c else None
            if m_star != want:
                problems.append(f"degree {n}: m_star {m_star} should be {want}")
            problems += check.check_supp_bound(n, m_star, (num, den))
            if n in sampled:
                quality = check.supp_quality(carriers, "1", table, n)
                if (f"{num}/{den}", exp) != quality:
                    problems.append(f"degree {n}: quality {num}/{den}, {exp} should be {quality}")
        if [row[0] for row in out["rows"]] != list(range(1, n_top + 1)):
            problems.append("scan skipped degrees")
        return problems

    return Job(f"scan/{index}", run, check_out,
               lambda out: [json.dumps(out["rows"])], golden=golden)


def gadget_job(key: str, horizon: int) -> Job:
    """property_profile of the three-cycle chunk, and gadget carrier audits."""
    rs = (2, 3, 4, 5)

    def run() -> dict:
        from soficapprox import gadgets, growth, lazyperm
        gc = gadgets.three_cycle_chunk(horizon=1500)
        profiles = [lazyperm.property_profile(gc, r, 1000) for r in rs]
        audits = [lazyperm.audit(make(), growth.Affine(k), horizon)
                  for make, k in ((gadgets.three_cycle, 2), (gadgets.three_cycle_squared, 2),
                                  (gadgets.delta, 3))]
        return {"profiles": [p if isinstance(p, int) else repr(p) for p in profiles],
                "audits": [(type(a).__name__, getattr(a, "audited_horizon", None))
                           for a in audits]}

    def check_out(out: dict) -> list[str]:
        problems = []
        for r, p in zip(rs, out["profiles"]):
            # The bound n + 31 has growth profile 62r + 1 at 2r.
            if not isinstance(p, int) or p > 62 * r + 1:
                problems.append(f"property profile at r = {r} is {p}")
        if out["audits"] != [("BoundWitness", horizon)] * 3:
            problems.append(f"audits {out['audits']}")
        return problems

    return Job(key, run, check_out, lambda out: [json.dumps(out)])


# -- workloads ------------------------------------------------------------------------

def z_mult(m: int):
    return lambda a, b: str((int(a) + int(b)) % m)


def build(workload: str, seed: int, workdir: str, canonical_names: bool = False) -> list[Job]:
    inp = Inputs(workdir, workload, seed, canonical_names)
    if workload == "search-dense":
        return [search_job(inp, f"dense/Z{m}@{m}", tuple(str(x) for x in range(m)),
                           z_mult(m), m, m) for m in DENSE]
    if workload == "search-sparse":
        return [search_job(inp, f"sparse/Z{m}{{{','.join(map(str, s))}}}@3",
                           tuple(str(x) for x in s), z_mult(m), 3, 8) for m, s in SPARSE]
    if workload == "realize-deep":
        jobs = [realize_jobs(inp, name, group, depth) for name, group, depth in REALIZE]
        return [j[0] for j in jobs] + [j[1] for j in jobs]
    if workload == "supp-scan":
        jobs = [scan_job(inp, i, SCAN_N, seed == DEFAULT_SEED) for i in range(SCAN_CARRIERS)]
        return jobs + [gadget_job("gadgets", GADGET_HORIZON)]
    raise ValueError(f"unknown workload {workload!r}")


def probes(workdir: str) -> list[Job]:
    """Small fixed jobs that reach every module, run in every traced pass so
    that no layer's figures are empty on any workload."""
    inp = Inputs(workdir, "probe", DEFAULT_SEED, canonical_names=True)
    jobs = [search_job(inp, "probe/Z5@5", tuple(str(x) for x in range(5)), z_mult(5), 5, 5)]
    jobs += realize_jobs(inp, "probe-z3", Z3, 8)
    jobs += [scan_job(inp, i, 100, True) for i in range(5)]
    jobs.append(gadget_job("probe/gadgets", 1000))
    for job in jobs:
        job.key = job.key if job.key.startswith("probe/") else f"probe/{job.key}"
    return jobs
