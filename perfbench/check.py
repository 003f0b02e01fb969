"""Independent checks of everything the benchmark's jobs emit.

Nothing here imports ``soficapprox``: certificates, realization files and
supp reports are re-parsed from their text and re-checked with integer
cross-multiplication only.  For a quality parameter r = num/den and a
disagreement count k at degree n, the defect test is ``k*num <= n*den`` and
the separation test is ``k*num >= n*(num - den)``.

Outputs are also reduced to a canonical form (seeded element names mapped
back to the canonical ones) and hashed, so one table of golden digests pins
the exact bytes for every seed.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from math import gcd


def frac(text: str) -> tuple[int, int]:
    num, _, den = text.strip().partition("/")
    return int(num), int(den or 1)


def reduced(k: int, n: int) -> str:
    g = gcd(k, n) or 1
    return f"{k // g}/{n // g}"


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not an image list: {text!r}")
    images = tuple(int(tok) for tok in text[1:-1].split())
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation: {text!r}")
    return images


def parse_chunk(text: str) -> tuple[list[str], str, dict[tuple[str, str], str]]:
    elements: list[str] = []
    unit = None
    table: dict[tuple[str, str], str] = {}
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] in ("unit", "elem") and len(toks) == 2:
            elements.append(toks[1])
            if toks[0] == "unit":
                unit = toks[1]
        elif len(toks) == 5 and toks[1] == "*" and toks[3] == "=":
            if toks[4] != "undef":
                table[(toks[0], toks[2])] = toks[4]
        else:
            raise ValueError(f"bad chunk line {line!r}")
    if unit is None:
        raise ValueError("chunk has no unit")
    return elements, unit, table


def disagreements(p, q) -> int:
    return sum(1 for x, y in zip(p, q) if x != y)


def product_image(a, b) -> tuple[int, ...]:
    return tuple(a[b[x]] for x in range(len(b)))


def check_certificate(text: str) -> list[str]:
    """Unit, defect and separation thresholds, claimed quality, and records."""
    header: dict[str, str] = {}
    witness: dict[str, tuple[int, ...]] = {}
    records: list[tuple[int, int]] = []
    chunk_lines: list[str] = []
    in_chunk = False
    for line in text.splitlines():
        if line == "chunk-begin":
            in_chunk = True
        elif line == "chunk-end":
            in_chunk = False
        elif in_chunk:
            chunk_lines.append(line)
        elif line.startswith("witness "):
            name, _, perm = line[len("witness "):].partition(" = ")
            if name in witness:
                return [f"duplicate witness for {name}"]
            witness[name] = parse_perm(perm)
        elif line.startswith("infeasible "):
            toks = line.split()
            records.append((int(toks[1]), int(toks[3])))
        elif " = " in line:
            key, _, value = line.partition(" = ")
            header[key] = value
    elements, unit, table = parse_chunk("\n".join(chunk_lines))
    num, den = frac(header["r"])
    n = int(header["n"])
    if set(witness) != set(elements):
        return [f"witness covers {sorted(witness)}, chunk has {sorted(elements)}"]
    if any(len(p) != n for p in witness.values()):
        return [f"witness images not all of degree {n}"]

    problems = []
    if witness[unit] != tuple(range(n)):
        problems.append("unit does not map to the identity")
    worst = max((disagreements(witness[c], product_image(witness[a], witness[b]))
                 for (a, b), c in table.items()), default=0)
    least = min((disagreements(witness[e1], witness[e2])
                 for i, e1 in enumerate(elements) for e2 in elements[i + 1:]), default=None)
    if worst * num > n * den:
        problems.append(f"defect {worst}/{n} exceeds 1/r = {den}/{num}")
    if least is not None and least * num < n * (num - den):
        problems.append(f"separation {least}/{n} below 1 - 1/r")
    if header["defect"] != reduced(worst, n):
        problems.append(f"claimed defect {header['defect']} is {reduced(worst, n)}")
    exp = "inf" if least is None else reduced(least, n)
    if header["expansiveness"] != exp:
        problems.append(f"claimed expansiveness {header['expansiveness']} is {exp}")
    degrees = [d for d, _ in records]
    if degrees != list(range(1, n)) or any(nodes < 1 for _, nodes in records):
        problems.append(f"infeasible records {records} do not cover degrees 1..{n - 1}")
    return problems


def check_profile_stdout(stdout: str, cert_text: str) -> list[str]:
    """The report names the certificate's degree, witness and quality."""
    lines = stdout.splitlines()
    cert = {}
    for line in cert_text.splitlines():
        if line.startswith("witness "):
            name, _, perm = line[len("witness "):].partition(" = ")
            cert[name] = perm
        elif line.startswith(("n = ", "defect = ", "expansiveness = ")):
            key, _, value = line.partition(" = ")
            cert[key] = value
    want = [f"prof = {cert['n']}"]
    want += [f"{e} -> {perm}" for e, perm in cert.items()
             if e not in ("n", "defect", "expansiveness")]
    want += [f"defect = {cert['defect']}", f"expansiveness = {cert['expansiveness']}"]
    return [] if lines == want else ["profile report disagrees with its certificate"]


def check_realization(payload: dict) -> list[str]:
    """Every stage n meets the 1/(n-1) thresholds, recomputed from sigma and f."""
    elements, unit, table = parse_chunk(payload["chunk"])
    m, f = payload["m"], payload["f"]
    sigma = [{e: tuple(images) for e, images in stage.items()} for stage in payload["sigma"]]
    problems = []
    for s in sigma:
        for e, images in s.items():
            if sorted(images) != list(range(len(images))):
                problems.append(f"stage image of {e} is not a permutation")
    total = 0
    prod_k = {key: 0 for key in table}
    pair_k: dict[tuple[str, str], int] = {}
    for idx, stage in enumerate(payload["stages"]):
        n = idx + 2
        s = sigma[idx]
        total += f[idx] * m[idx]
        for (a, b), c in table.items():
            prod_k[(a, b)] += f[idx] * disagreements(s[c], product_image(s[a], s[b]))
        for i, e1 in enumerate(elements):
            for e2 in elements[i + 1:]:
                pair_k[(e1, e2)] = pair_k.get((e1, e2), 0) + f[idx] * disagreements(s[e1], s[e2])
        if s[unit] != tuple(range(m[idx])):
            problems.append(f"stage {n}: unit does not map to the identity")
        if stage["degree"] != total or payload["layout"][idx] != total:
            problems.append(f"stage {n}: degree {stage['degree']} is not {total}")
        worst = max(prod_k.values(), default=0)
        least = min(pair_k.values(), default=None)
        if worst * (n - 1) > total:
            problems.append(f"stage {n}: defect {worst}/{total} exceeds 1/{n - 1}")
        if least is not None and least * (n - 1) < total * (n - 2):
            problems.append(f"stage {n}: separation {least}/{total} below 1 - 1/{n - 1}")
        if stage["defect"] != reduced(worst, total):
            problems.append(f"stage {n}: claimed defect {stage['defect']}")
        if least is not None and stage["expansiveness"] != reduced(least, total):
            problems.append(f"stage {n}: claimed expansiveness {stage['expansiveness']}")
    return problems


def blockstep_m_star(spec: str, n: int) -> int | None:
    """Largest m with g(m) <= n for ``blockstep:b1,o1;...``, by direct scan."""
    pairs = [tuple(int(v) for v in part.split(",")) for part in spec[len("blockstep:"):].split(";")]
    breaks = [b for b, _ in pairs]
    offsets = [o for _, o in pairs]
    for m in range(n, -1, -1):
        if m + offsets[min(bisect_right(breaks, m), len(offsets) - 1)] <= n:
            return m
    return None


def check_supp_bound(n: int, m_star: int | None, defect: tuple[int, int]) -> list[str]:
    """defect <= 2(n - m*)/n, whenever m* exists."""
    num, den = defect
    if m_star is not None and num * n > 2 * (n - m_star) * den:
        return [f"degree {n}: defect {num}/{den} exceeds 2({n} - {m_star})/{n}"]
    return []


def check_supp_stdout(stdout: str, bound_spec: str) -> list[str]:
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines())
    n = int(fields["n"])
    m_star = None if fields["m_star"] == "none" else int(fields["m_star"])
    want = blockstep_m_star(bound_spec, n)
    if m_star != want:
        return [f"m_star {m_star} should be {want}"]
    return check_supp_bound(n, m_star, frac(fields["defect"]))


def supp_quality(images_by_element: dict[str, list[int]], unit: str,
                 table: dict[tuple[str, str], str], n: int) -> tuple[str, str | None]:
    """(defect, expansiveness) of the greedy degree-n restriction of finitary
    carriers: kept pairs below n, leftover points matched in increasing order."""
    restricted = {unit: tuple(range(n))}
    for e, images in images_by_element.items():
        out = [None] * n
        used = [False] * n
        for x in range(n):
            v = images[x] if x < len(images) else x
            if v < n:
                out[x] = v
                used[v] = True
        free = iter(v for v in range(n) if not used[v])
        restricted[e] = tuple(v if v is not None else next(free) for v in out)
    worst = max((disagreements(restricted[c], product_image(restricted[a], restricted[b]))
                 for (a, b), c in table.items()), default=0)
    elements = [unit, *images_by_element]
    least = min((disagreements(restricted[e1], restricted[e2])
                 for i, e1 in enumerate(elements) for e2 in elements[i + 1:]), default=None)
    return reduced(worst, n), None if least is None else reduced(least, n)


# -- canonical form and digests ---------------------------------------------------

def canon_text(text: str, rename: dict[str, str]) -> str:
    return "\n".join(" ".join(rename.get(tok, tok) for tok in line.split(" "))
                     for line in text.split("\n"))


def canon_realization(text: str, rename: dict[str, str]) -> str:
    """The file the program writes for canonically named input (same JSON layout)."""
    payload = json.loads(text)
    payload["chunk"] = canon_text(payload["chunk"], rename)
    payload["sigma"] = [{rename.get(e, e): images for e, images in stage.items()}
                        for stage in payload["sigma"]]
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
