"""Command-line frontend: batch subcommands over chunk files and reports.

Exit codes: 0 for a successful result or certificate, 2 for an exhausted
search or a check that does not hold, 1 for usage or data errors.  All
serialized rationals are exact ``P/Q`` text; identical inputs and flags
produce byte-identical output regardless of the worker count.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from . import gadgets, profile
from .chunk import (Chunk, ChunkParseError, format_chunk, parse_chunk, parse_chunk_file, validate,
                    validated)
from .growth import GrowthFn, growth_profile, is_slow, ll, lt_eventually, parse_growth, sim
from .lazyperm import (MAX_HORIZON, GChunk, LazyPerm, Realization, build_gchunk, finitary,
                       identity_lazy, realize, supp_quality)
from .permcore import Perm, format_perm, parse_perm
from .profile import (Exhausted, ProfileCertificate, measure, profile_table,
                      replay_records, sofic_profile)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_EXHAUSTED = 2


DEFAULT_N_MAX = 8
# `sofic supp` audits to max(SUPP_MIN_HORIZON, 2n), capped at MAX_HORIZON,
# unless --horizon is given.
SUPP_MIN_HORIZON = 1000


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x: Fraction | None) -> str:
    if x is None:
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# -- certificate persistence -----------------------------------------------------

def emit_certificate(path: str, cert: ProfileCertificate, c: Chunk) -> None:
    """Self-contained text certificate: chunk, witness, quality, search records."""
    lines = [
        f"r = {format_rational(cert.r)}",
        f"n = {cert.n}",
        f"defect = {format_rational(cert.quality.defect)}",
        f"expansiveness = {format_rational(cert.quality.expansiveness)}",
    ]
    for rec in cert.infeasible:
        lines.append(f"infeasible {rec.degree} nodes {rec.nodes}")
    for e in c.elements:
        lines.append(f"witness {e} = {format_perm(cert.assignment[e])}")
    lines.append("chunk-begin")
    lines.append(format_chunk(c).rstrip("\n"))
    lines.append("chunk-end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER_KEYS = ("r", "n", "defect", "expansiveness")
_RECORD_RE = re.compile(r"infeasible (\d+) nodes (\d+)", re.ASCII)


def load_certificate(path: str) -> tuple[ProfileCertificate, Chunk]:
    """Parse and re-verify a certificate; tampering fails with the bad quantity.

    The embedded chunk must pass ``chunk.validate``.  The witness is
    re-measured against it and must reproduce the claimed defect and
    expansiveness exactly, and meet the r-thresholds.  The infeasibility
    records must name degrees 1..n-1, once each and in order; their node
    counts are checked only by ``replay_records``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header: dict[str, str] = {}
    witness_lines: dict[str, str] = {}
    records: list[profile.DegreeRecord] = []
    chunk_lines: list[str] = []
    in_chunk = False
    for raw in text.splitlines():
        line = raw.strip()
        if line == "chunk-begin":
            in_chunk = True
            continue
        if line == "chunk-end":
            in_chunk = False
            continue
        if in_chunk:
            chunk_lines.append(raw)
            continue
        if not line:
            continue
        if line.startswith("witness "):
            body = line[len("witness "):]
            name, _, perm_text = body.partition(" = ")
            name = name.strip()
            if name in witness_lines:
                raise ValueError(f"certificate has two witness lines for {name!r}")
            witness_lines[name] = perm_text.strip()
        elif line.startswith("infeasible "):
            match = _RECORD_RE.fullmatch(line)
            if match is None:
                raise ValueError(f"malformed record {line!r}; expected 'infeasible D nodes N'")
            records.append(profile.DegreeRecord(int(match[1]), int(match[2])))
        else:
            key, _, value = line.partition(" = ")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise ValueError(f"cannot parse certificate line {line!r}")
            if key in header:
                raise ValueError(f"certificate has two {key!r} lines")
            header[key] = value.strip()
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError(f"certificate lacks the {key!r} line")

    c = validated(parse_chunk("\n".join(chunk_lines)))
    r = parse_rational(header["r"])
    if r < 1:
        raise ValueError(f"certificate quality r = {format_rational(r)} is below 1")
    n = int(header["n"])
    if n < 1:
        raise ValueError(f"certificate degree n = {n} is not positive")
    degrees = [rec.degree for rec in records]
    if len(degrees) != n - 1 or degrees != list(range(1, n)):
        raise ValueError(f"infeasibility records name degrees {degrees}; "
                         f"expected 1..{n - 1}, once each and in order")
    assignment = {}
    for name, perm_text in witness_lines.items():
        if name not in c.elements:
            raise ValueError(f"witness names unknown element {name!r}")
        p = parse_perm(perm_text, degree=n)
        assignment[name] = p
    quality = measure(c, assignment)
    claimed_defect = parse_rational(header["defect"])
    exp_text = header["expansiveness"]
    claimed_exp = None if exp_text == "inf" else parse_rational(exp_text)
    if quality.defect != claimed_defect:
        raise ValueError(
            f"re-measured defect {format_rational(quality.defect)} "
            f"differs from claimed {format_rational(claimed_defect)}")
    if quality.expansiveness != claimed_exp:
        raise ValueError(
            f"re-measured expansiveness {format_rational(quality.expansiveness)} "
            f"differs from claimed {format_rational(claimed_exp)}")
    if not quality.meets(r):
        raise ValueError(f"witness does not meet the r = {format_rational(r)} thresholds")
    cert = ProfileCertificate(r, n, assignment, quality, tuple(records))
    return cert, c


# -- realization persistence ------------------------------------------------------

def _realization_payload(real: Realization) -> dict:
    """The JSON object ``emit_realization`` writes for ``real``."""
    return {
        "format": "realization-v1",
        "chunk": format_chunk(real.chunk),
        "depth": real.depth,
        "m": list(real.m),
        "f": list(real.f),
        "layout": list(real.layout),
        "g": real.g.spec(),
        "sigma": [{e: list(s[e].images) for e in real.chunk.elements} for s in real.sigma],
        "stages": [
            {
                "n": st.n, "m": st.m_n, "f": st.f_n, "degree": st.degree,
                "defect": format_rational(st.defect),
                "expansiveness": format_rational(st.expansiveness),
                "slow_lhs": format_rational(st.slow_lhs),
                "g_gap": format_rational(st.g_gap),
                "slow_threshold": format_rational(st.slow_threshold),
            }
            for st in real.stages
        ],
    }


def emit_realization(path: str, real: Realization) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_realization_payload(real), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_realization(path: str) -> Realization:
    """Rebuild a realization from its emitted file, re-verifying every stage
    and every stored field against the recomputed one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError(f"realization file {path!r} nests too deeply to parse") from None
        except ValueError as exc:
            raise ValueError(f"realization file {path!r} is not JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != "realization-v1":
        raise ValueError(f"unrecognized realization file {path!r}")
    chunk_text, sigma = payload.get("chunk"), payload.get("sigma")
    if not (isinstance(chunk_text, str) and isinstance(sigma, list)
            and all(isinstance(s, dict) and all(isinstance(images, list) for images in s.values())
                    for s in sigma)):
        raise ValueError(f"realization file {path!r} needs a chunk text and image lists "
                         "'sigma', one per stage")
    c = parse_chunk(chunk_text)
    real = realize(c, [{e: Perm(tuple(images)) for e, images in s.items()}
                       for s in sigma])  # checks every stage against its thresholds
    recomputed = _realization_payload(real)
    differ = sorted(key for key in recomputed.keys() | payload.keys()
                    if recomputed.get(key) != payload.get(key))
    if differ:
        raise ValueError(f"stored fields differ from the recomputed ones: {', '.join(differ)}")
    return real


# -- gchunk spec files -------------------------------------------------------------

_GADGET_CARRIERS = {
    "threecycle": gadgets.three_cycle,
    "threecycle2": gadgets.three_cycle_squared,
    "delta": gadgets.delta,
    "identity": identity_lazy,
}


def parse_gchunk_file(path: str, horizon: int) -> GChunk:
    """Build a g-chunk from ``chunk``, ``carrier``, and ``bound`` statements.

    Carrier kinds: ``gadget:NAME``, ``table:[images]`` (identity beyond the
    listed prefix), ``blocksum:PATH`` (an emitted realization, element matched
    by name).  The unit's carrier defaults to the identity.  The chunk, the
    bound and each element's carrier are given once.
    """
    base = os.path.dirname(os.path.abspath(path))
    chunk_obj: Chunk | None = None
    carrier_specs: list[tuple[int, str, str]] = []
    bound: GrowthFn | None = None
    given: dict[str, int] = {}  # the line of each statement, by what it gives
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, spec = line.partition("=")
            if line.startswith("chunk "):
                key = "chunk"
            elif line.startswith("carrier "):
                name = head[len("carrier "):].strip()
                key = f"carrier of {name!r}"
            elif head.strip() == "bound":
                key = "bound"
            else:
                raise ChunkParseError(lineno, f"cannot parse statement {line!r}")
            if key in given:
                raise ChunkParseError(lineno, f"{key} already given on line {given[key]}")
            given[key] = lineno
            if key == "chunk":
                rel = line[len("chunk "):].strip()
                target = rel if os.path.isabs(rel) else os.path.join(base, rel)
                chunk_obj = parse_chunk_file(target)
            elif key == "bound":
                bound = parse_growth(spec.strip())
            else:
                carrier_specs.append((lineno, name, spec.strip()))
    if chunk_obj is None:
        raise ValueError(f"{path}: no chunk statement")
    if bound is None:
        raise ValueError(f"{path}: no bound statement")
    carriers: dict[str, LazyPerm] = {}
    loaded: dict[str, Realization] = {}  # realization files by resolved path
    for lineno, name, spec in carrier_specs:
        if name not in chunk_obj.elements:
            raise ChunkParseError(lineno, f"carrier for unknown element {name!r}")
        carriers[name] = _parse_carrier(spec, base, name, lineno, loaded)
    return build_gchunk(chunk_obj, carriers, bound, horizon)


def _parse_carrier(spec: str, base: str, element: str, lineno: int,
                   loaded: dict[str, Realization]) -> LazyPerm:
    if spec.startswith("gadget:"):
        name = spec[len("gadget:"):]
        if name not in _GADGET_CARRIERS:
            raise ChunkParseError(lineno, f"unknown gadget carrier {name!r}")
        return _GADGET_CARRIERS[name]()
    if spec.startswith("table:"):
        body = spec[len("table:"):]
        if body.endswith("+id"):  # the descriptor form round-trips
            body = body[:-len("+id")]
        p = parse_perm(body)
        return finitary(p.images)
    if spec.startswith("blocksum:"):
        rel = spec[len("blocksum:"):]
        target = rel if os.path.isabs(rel) else os.path.join(base, rel)
        key = os.path.realpath(target)
        if key not in loaded:
            loaded[key] = load_realization(target)
        return loaded[key].carrier(element)
    raise ChunkParseError(lineno, f"cannot parse carrier spec {spec!r}")


# -- subcommands -------------------------------------------------------------------

def _cmd_chunk_validate(args) -> int:
    c = parse_chunk_file(args.file)
    report = validate(c)
    if report.ok:
        print("valid")
        return EXIT_OK
    for v in report.all_violations():
        print(f"violation: {v}")
    return EXIT_DATA


def _cmd_profile(args) -> int:
    c = parse_chunk_file(args.chunk)
    n_max = args.n_max if args.n_max is not None else DEFAULT_N_MAX
    if args.all_r:
        if args.emit_witness or args.emit_cert:
            raise ValueError("--emit-witness/--emit-cert need a single --r")
        rs = []
        for tok in args.all_r.split(","):
            try:
                rs.append(parse_rational(tok))
            except ValueError:
                raise ValueError(f"--all-r takes P/Q values separated by commas, "
                                 f"got {tok!r}") from None
        results = profile_table(c, rs, n_max, workers=args.workers)
        code = EXIT_OK
        for r, res in zip(rs, results):
            if isinstance(res, Exhausted):
                print(f"r = {format_rational(r)} exhausted at n_max = {res.n_max}")
                code = EXIT_EXHAUSTED
            else:
                print(f"r = {format_rational(r)} prof = {res.n}")
        return code
    if args.r is None:
        raise ValueError("need --r or --all-r")
    for flag, path in (("--emit-witness", args.emit_witness), ("--emit-cert", args.emit_cert)):
        folder = os.path.dirname(path or "")
        if folder and not os.path.isdir(folder):
            raise ValueError(f"{flag} directory {folder!r} does not exist")
    result = sofic_profile(c, args.r, n_max, workers=args.workers)
    if isinstance(result, Exhausted):
        print(f"exhausted at n_max = {result.n_max}")
        return EXIT_EXHAUSTED
    print(f"prof = {result.n}")
    for e in c.elements:
        print(f"{e} -> {format_perm(result.assignment[e])}")
    print(f"defect = {format_rational(result.quality.defect)}")
    print(f"expansiveness = {format_rational(result.quality.expansiveness)}")
    if result.vacuous:
        print("note: r = 1 makes every assignment feasible; certificate is vacuous")
    if args.emit_witness:
        with open(args.emit_witness, "w", encoding="utf-8") as fh:
            for e in c.elements:
                fh.write(f"{e} -> {format_perm(result.assignment[e])}\n")
    if args.emit_cert:
        emit_certificate(args.emit_cert, result, c)
    return EXIT_OK


def _cmd_growth_prof(args) -> int:
    g = parse_growth(args.g)
    result = growth_profile(g, args.r, args.n_max)
    if isinstance(result, Exhausted):
        print(f"exhausted at n_max = {result.n_max}")
        if result.note:
            print(f"note: {result.note}")
        return EXIT_EXHAUSTED
    print(result)
    return EXIT_OK


def _cmd_growth_cmp(args) -> int:
    f = parse_growth(args.f)
    g = parse_growth(args.g)
    if args.rel == "prec":
        v = lt_eventually(f, g)
        print(f"prec: true from n0 = {v.n0}" if v.outcome == "true"
              else f"prec: false, f >= g from n = {v.witness}")
    elif args.rel == "ll":
        v = ll(f, g)
        print("ll: true for every power" if v.outcome == "true"
              else f"ll: false at power k = {v.k}")
    else:
        v = sim(f, g)
        print(f"sim: true with k = {v.k}" if v.outcome == "true" else f"sim: false ({v.note})")
    return EXIT_OK


def supp_horizon(n: int, horizon: int | None) -> int:
    """The audited prefix of ``sofic supp --n n``: ``--horizon`` when given,
    else max(SUPP_MIN_HORIZON, 2n) capped at ``MAX_HORIZON``.  A degree past
    the cap is refused here, naming ``--n``, before any carrier is read."""
    if horizon is not None:
        return horizon
    if n > MAX_HORIZON:
        raise ValueError(f"--n {n} exceeds the largest audited prefix, {MAX_HORIZON}")
    return min(max(SUPP_MIN_HORIZON, 2 * n), MAX_HORIZON)


def _cmd_supp(args) -> int:
    gc = parse_gchunk_file(args.gchunk, supp_horizon(args.n, args.horizon))
    report = supp_quality(gc, args.n, args.r)
    print(f"n = {report.n}")
    print(f"m_star = {report.m_star if report.m_star is not None else 'none'}")
    print(f"defect = {format_rational(report.quality.defect)}")
    print(f"expansiveness = {format_rational(report.quality.expansiveness)}")
    print(f"defect_bound = {format_rational(report.defect_bound)}"
          if report.defect_bound is not None else "defect_bound = none")
    print(f"defect_bound_holds = {_yn(report.defect_bound_holds)}")
    print(f"separation_hypothesis = {_yn(report.separation_hypothesis)}")
    print(f"conclusion_expected = {_yn(report.conclusion_expected)}")
    print(f"expansiveness_threshold = {format_rational(report.expansiveness_threshold)}")
    print(f"expansiveness_ok = {_yn(report.expansiveness_ok)}")
    return EXIT_OK


def _yn(value) -> str:
    if value is None:
        return "none"
    return "true" if value else "false"


def _cmd_realize(args) -> int:
    c = parse_chunk_file(args.chunk)
    if args.depth < 2:
        raise ValueError("depth must be at least 2")
    n_max = args.n_max if args.n_max is not None else DEFAULT_N_MAX
    certs = profile_table(c, range(2, args.depth + 1), n_max, workers=args.workers)
    for r, cert in enumerate(certs, start=2):
        if isinstance(cert, Exhausted):
            print(f"profile search exhausted at r = {r}, n_max = {cert.n_max}")
            return EXIT_EXHAUSTED
    real = realize(c, [cert.assignment for cert in certs])
    for st in real.stages:
        print(f"n = {st.n} m = {st.m_n} f = {st.f_n} degree = {st.degree} "
              f"defect = {format_rational(st.defect)} "
              f"expansiveness = {format_rational(st.expansiveness)} "
              f"slow_lhs = {format_rational(st.slow_lhs)} "
              f"g_gap = {format_rational(st.g_gap)} "
              f"threshold = {format_rational(st.slow_threshold)}")
    print(f"g = {real.g.spec()}")
    verdict = is_slow(real.g)
    print(f"slow = {verdict.verdict}")
    if args.emit:
        emit_realization(args.emit, real)
    return EXIT_OK


def _cmd_gadget_example(args) -> int:
    report = gadgets.example_check(args.n)
    print(f"n = {report.n}")
    print(f"m_star = {report.m_star}")
    print(f"fix_count = {report.fix_count}")
    print(f"deviation = {report.deviation}")
    print(f"holds = {_yn(report.holds)}")
    return EXIT_OK if report.holds else EXIT_EXHAUSTED


def _cmd_gadget_encode(args) -> int:
    p = parse_perm(args.rho)
    rho = finitary(p.images)
    result = gadgets.encode_check(rho, args.k, args.n, args.horizon)
    print("true" if result else "false")
    return EXIT_OK


def _cmd_gadget_stages(args) -> int:
    tokens = [tok.strip() for tok in args.trace.split(",")]
    bad = next((tok for tok in tokens if tok not in ("0", "1")), None)
    if bad is not None:
        raise ValueError(f"--trace flags must be 0 or 1, got {bad!r}")
    flags = tuple(tok == "1" for tok in tokens)
    _, outcome = gadgets.stage_construction(gadgets.StageTrace(flags), args.horizon)
    print(f"fired = {outcome.fired}")
    print(f"prefix_end = {outcome.prefix_end}")
    print(f"involution_on_prefix = {_yn(outcome.involution_on_prefix)}")
    print(f"collisions_beyond = {_yn(outcome.collisions_beyond)}")
    return EXIT_OK


def _cmd_cert_verify(args) -> int:
    cert, c = load_certificate(args.file)
    if args.replay:
        replay_records(c, cert.r, cert.infeasible, workers=args.workers)
    print(f"certificate ok: prof({format_rational(cert.r)}) <= {cert.n} "
          f"for chunk on {len(c.elements)} elements")
    if args.replay:
        print("replay ok: every recorded degree exhausts in its recorded node count")
    return EXIT_OK


# -- the command line ----------------------------------------------------------------

# Flag and Command are slotted classes: as NamedTuples the two would add about
# 0.5 ms to every import of this module.
class Flag:
    """One argument of a command: ``--name VALUE``, or a positional when the
    name has no leading dashes.  ``type`` converts the text; ``bool`` makes
    a ``--name`` switch, which takes no value.  ``dest`` is the name that
    argparse gives its value."""

    __slots__ = ("name", "dest", "type", "default", "required", "choices", "help")

    def __init__(self, name: str, type: Callable = str, default=None, required: bool = False,
                 choices: tuple[str, ...] | None = None, help: str | None = None):
        self.name, self.dest = name, name.lstrip("-").replace("-", "_")
        self.type, self.default, self.required = type, default, required
        self.choices, self.help = choices, help


class Command:
    """A leaf subcommand: its words after ``sofic``, help, handler and flags."""

    __slots__ = ("words", "help", "handler", "flags")

    def __init__(self, words: tuple[str, ...], help: str, handler: Callable,
                 flags: tuple[Flag, ...]):
        self.words, self.help, self.handler, self.flags = words, help, handler, flags


GLOBAL_FLAGS = (Flag("--workers", int, 1, help="parallel search workers"),)
# The first word of each two-word command, with its help.
GROUPS = {"chunk": "chunk file operations", "growth": "growth-function calculus",
          "gadget": "worked constructions", "cert": "certificate persistence"}
_FILE = Flag("file")
_CHUNK = Flag("--chunk", required=True)
_N_MAX = Flag("--n-max", int)
_G = Flag("--g", required=True)
_R = Flag("--r", parse_rational, required=True)
_N = Flag("--n", int, required=True)
COMMANDS = (
    Command(("chunk", "validate"), "validate a chunk file", _cmd_chunk_validate, (_FILE,)),
    Command(("profile",), "certified sofic profile search", _cmd_profile, (
        _CHUNK,
        Flag("--r", parse_rational, help="quality parameter P/Q"),
        Flag("--all-r", help="comma-separated list P1/Q1,P2/Q2,..."),
        _N_MAX, Flag("--emit-witness"), Flag("--emit-cert"))),
    Command(("growth", "prof"), "profile of a growth function", _cmd_growth_prof,
            (_G, _R, Flag("--n-max", int, 10_000))),
    Command(("growth", "cmp"), "order comparisons", _cmd_growth_cmp,
            (Flag("--f", required=True), _G,
             Flag("--rel", choices=("prec", "ll", "sim"), required=True))),
    Command(("supp",), "supp-morphism quality report", _cmd_supp, (
        Flag("--gchunk", required=True), _N, _R,
        Flag("--horizon", int, help="audit the carriers on [0, H]; --n must be at most H "
                                    "(default: max(1000, 2n), capped at 10^6)"))),
    Command(("realize",), "block-direct-sum realization", _cmd_realize,
            (_CHUNK, Flag("--depth", int, required=True), _N_MAX, Flag("--emit"))),
    Command(("gadget", "example"), "three-cycle fixed-point deviation", _cmd_gadget_example,
            (_N,)),
    Command(("gadget", "encode"), "point-evaluation encoding", _cmd_gadget_encode, (
        Flag("--rho", required=True, help="finitary permutation, cycle form"),
        Flag("--k", int, required=True), _N, Flag("--horizon", int, 1000))),
    Command(("gadget", "stages"), "stagewise limit map", _cmd_gadget_stages, (
        Flag("--trace", required=True, help="comma-separated 0/1 flags"),
        Flag("--horizon", int, required=True))),
    Command(("cert", "verify"), "re-measure a stored certificate", _cmd_cert_verify, (
        _FILE, Flag("--replay", bool, False, help="re-run the search at every recorded "
                                                  "degree and compare its node count"))),
)


def _read_flags(tokens: list[str], flags: tuple[Flag, ...]) -> tuple[dict, int] | None:
    """Read ``tokens`` as ``flags`` up to the first positional left over.

    Returns every flag's value by dest, its default when not given, and the
    index of that positional (``len(tokens)`` when there is none).  Returns
    None unless each token read is an exact flag, given once as ``--flag
    value`` or ``--flag=value`` with a value that does not start with ``-``
    and that its converter and choices accept, and every required flag and
    positional is given.
    """
    named = {flag.name: flag for flag in flags}
    positionals = [flag for flag in flags if not flag.name.startswith("-")]
    values: dict = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("-"):
            if not positionals:
                break
            flag, text = positionals.pop(0), token
        else:
            name, eq, text = token.partition("=")
            flag = named.get(name)
            if flag is None or flag.dest in values or (flag.type is bool and eq):
                return None
            if flag.type is bool:
                values[flag.dest] = True
                i += 1
                continue
            if not eq:
                i += 1
                if i == len(tokens):
                    return None
                text = tokens[i]
            if text.startswith("-"):
                return None
        i += 1
        try:
            value = flag.type(text)
        except (TypeError, ValueError):  # argparse's usage error names the flag
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    if positionals or any(flag.required and flag.dest not in values for flag in flags):
        return None
    return {flag.dest: values.get(flag.dest, flag.default) for flag in flags}, i


def read_command_line(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    the command table without argparse, or None for an argv that needs it:
    help, a usage error, or a flag that is abbreviated, repeated, or whose
    value starts with ``-``."""
    read = _read_flags(argv, GLOBAL_FLAGS)
    if read is None:
        return None
    top, start = read
    command = next((cmd for cmd in COMMANDS
                    if tuple(argv[start:start + len(cmd.words)]) == cmd.words), None)
    if command is None:
        return None
    rest = argv[start + len(command.words):]
    read = _read_flags(rest, command.flags)
    if read is None or read[1] < len(rest):
        return None
    args = SimpleNamespace(**top, command=command.words[0])
    if len(command.words) == 2:
        setattr(args, f"{command.words[0]}_command", command.words[1])
    args.__dict__.update(read[0], handler=command.handler)
    return args


@functools.cache
def build_parser():
    """The ``sofic`` argparse parser, generated from the command table on the
    first call and shared by every later one; ``main`` needs it only for
    help and usage errors.  Each leaf carries its handler as
    ``args.handler``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # usage errors are exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            sys.stderr.write(f"error: {message}\n")
            raise SystemExit(EXIT_DATA)

    def add_flags(parser, flags):
        for flag in flags:
            kwargs = {"default": flag.default}
            if flag.type is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=flag.type, choices=flag.choices)
            if flag.name.startswith("-"):
                kwargs["required"] = flag.required
            parser.add_argument(flag.name, help=flag.help, **kwargs)

    parser = Parser(prog="sofic", description=__doc__)
    add_flags(parser, GLOBAL_FLAGS)
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        group = command.words[:-1]
        if group not in subparsers:
            p_group = subparsers[()].add_parser(group[0], help=GROUPS[group[0]])
            subparsers[group] = p_group.add_subparsers(dest=f"{group[0]}_command",
                                                       required=True)
        leaf = subparsers[group].add_parser(command.words[-1], help=command.help)
        add_flags(leaf, command.flags)
        leaf.set_defaults(handler=command.handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_command_line(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse handles -h (0) and usage errors (1)
            return exc.code if isinstance(exc.code, int) else EXIT_DATA
    try:
        if args.workers < 1:
            raise ValueError("--workers must be positive")
        return args.handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
