"""Seeded input generators for the four perfbench workloads, and the
closed-form expectations their outputs are checked against.

Every input is a pure function of the seed: the same seed gives the same
bytes. The rulesets under inputs/ are copies of corpus files, so edits to
the corpus do not silently change the benchmark.
"""

import json
import random
import re
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# The held-out seed: never used while tuning a change, so a later
# performance claim can be checked on it too.
HELD_OUT_SEED = 90210

# exchange: university.tgd + paper_intro.tgd over a seeded source.
EXCHANGE = dict(students=5000, courses=500, per_student=5,
                employees=12500, departments=500)
# exchange-spill: the same generator under --spill-dir, with the default
# 256 KiB segments and a memory budget low enough that sealed segments are
# evicted and faulted back in. The budget sits mid-window. At seeds 1, 2,
# 7 and 90210 every budget from 38 to 53 MiB evicts 3-4 segments and
# faults 1 back in; 37 MiB stops the run with exit 4, 54 MiB evicts
# without faulting, and 55 MiB evicts nothing. So the byte accounting can
# grow by about 20% or shrink by about 16% before the run fails or stops
# faulting, and run.py fails a run that did not seal, evict and fault. No
# fixed budget does much better with these rules: sealed payload is a
# small share of the resident bytes (term arena, digests, null bookkeeping
# and unsealed tails stay), and faults need pressure while round 1 still
# has segments that later rounds read back.
SPILL = dict(students=8000, courses=800, per_student=5,
             employees=20000, departments=800)
SPILL_FLAGS = ["--max-memory-mb", "45"]

# closure: the high-fanout-join fuzz shape over one fixed random digraph
# whose nodes the seed renames. The graph is fixed because it decides the
# chase's round structure: freshly drawn graphs of the same size (fact
# count within 2%) spread peak RSS over 156-219 MiB and wall time by 25%.
CLOSURE_GRAPH_SEED = 0
CLOSURE_NODES = 36
CLOSURE_EDGES = 72
CLOSURE_TARGET = 22000
CLOSURE_BAND = 0.02
CLOSURE_RULES = (
    "tc: E(x, y) & E(y, z) -> E(x, z) .\n"
    "j3: E(x0, x1) & E(x1, x2) & E(x2, x3) -> J(x0, x3) .\n"
    "mk: J(x, y) & E(y, z) -> exists w . P(x, w) .\n")

# serve-mix. UNVERIFIED ASSUMPTIONS: no measured serve traffic exists to
# take these from. The request shares, the exact-repeat share of classify
# requests (which sets serve.cache_hit_share), and the certain and lint
# sizes are chosen, not observed. A claim that depends on any of them
# (cache hits above all) must say so; run.py prints them with every
# serve-mix result.
ASSUMED_MIX_SHARES = (("certain", 0.60), ("lint", 0.25),
                      ("classify", 0.15))
ASSUMED_CLASSIFY_REPEAT_SHARE = 0.30
ASSUMED_CERTAIN_STUDENTS = (40, 160)
ASSUMED_LINT_LINKS = (16, 256)
ASSUMED_MIX = {
    "verified": False,
    "shares": dict(ASSUMED_MIX_SHARES),
    "classify_exact_repeat_share": ASSUMED_CLASSIFY_REPEAT_SHARE,
    "certain_students": list(ASSUMED_CERTAIN_STUDENTS),
    "lint_links": list(ASSUMED_LINT_LINKS),
}
CLASSIFY_BASES = ("university.tgd", "paper_intro.tgd", "paper_selfmgr.tgd",
                  "paper_tau.tgd", "paper_theorem41.tgd",
                  "tier_polynomial.tgd", "tier_exponential.tgd",
                  "triangular_frontier.tgd")
# certain: each query with its closed-form answer count over a Takes
# source given as (students, takes pairs, distinct courses).
CERTAIN_COURSES = 12
CERTAIN_QUERIES = (
    ("ans(s) :- Attends(s).", lambda s, t, c: s),
    ("ans(s, c) :- Enrollment(s, c, r).", lambda s, t, c: t),
    ("ans(c) :- Offered(c).", lambda s, t, c: c),
    ("ans(s) :- Seated(x, s).", lambda s, t, c: s),
    ("ans(s, a) :- Advised(s, a).", lambda s, t, c: 0),
)


def read_input(name):
    return (INPUTS / name).read_text()


def exchange_rules():
    return read_input("university.tgd") + read_input("paper_intro.tgd")


def exchange_instance(seed, students, courses, per_student, employees,
                      departments):
    """Takes/Emp/Dep facts with no duplicates, every course and department
    used, and their expected chase output counts."""
    rng = random.Random(seed)
    lines = []
    for s in range(students):
        taken = {s % courses}
        while len(taken) < per_student:
            taken.add(rng.randrange(courses))
        lines += [f"Takes(s{s}, c{c}) .\n" for c in sorted(taken)]
    order = list(range(departments))
    rng.shuffle(order)
    lines += [f"Emp(e{e}, d{order[e % departments]}) .\n"
              for e in range(employees)]
    lines += [f"Dep(d{d}) .\n" for d in range(departments)]
    rng.shuffle(lines)
    return "".join(lines), exchange_expected(
        students, courses, per_student, employees, departments)


def exchange_expected(students, courses, per_student, employees,
                      departments):
    takes = students * per_student
    counts = {
        "Takes": takes, "Emp": employees, "Dep": departments,
        "Enrollment": takes, "Attends": students, "Offered": courses,
        "Advised": students, "Section": courses, "Seated": takes,
        "Mgr": employees, "DeptMgr": employees, "NMgr": employees,
        "IdMgr": employees,
    }
    # sk_rec per Takes, advisor per student, sk_section per course;
    # Mgr's null per Emp, eid per employee, and one null per department
    # for each of fdm, dm2 and dm3.
    nulls = takes + students + courses + 2 * employees + 3 * departments
    created = sum(counts.values()) - (takes + employees + departments)
    return {"counts": counts, "nulls": nulls,
            "header": f"# chase fixpoint after 3 rounds, {created} facts "
                      "created\n"}


def _reach_masks(nodes, edges):
    """Bitmask of nodes reachable by a path of length >= 1, per node."""
    succ = [0] * nodes
    for a, b in edges:
        succ[a] |= 1 << b
    reach = []
    for s in range(nodes):
        seen, frontier = 0, succ[s]
        while frontier & ~seen:
            new = frontier & ~seen
            seen |= new
            frontier = 0
            while new:
                low = new & -new
                frontier |= succ[low.bit_length() - 1]
                new ^= low
        reach.append(seen)
    return reach


def _compose(masks, reach):
    out = []
    for m in masks:
        acc = 0
        while m:
            low = m & -m
            acc |= reach[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return out


def closure_counts(nodes, edges):
    """The benchmark's own evaluation of CLOSURE_RULES: E is the
    transitive closure, J the pairs joined by three closure steps, and P
    holds one Skolem null per (J, E) match."""
    reach = _reach_masks(nodes, edges)
    j_masks = _compose(_compose(reach, reach), reach)
    e = sum(bin(m).count("1") for m in reach)
    j = sum(bin(m).count("1") for m in j_masks)
    p = 0
    for m in j_masks:
        while m:
            low = m & -m
            p += bin(reach[low.bit_length() - 1]).count("1")
            m ^= low
    return {"E": e, "J": j, "P": p}


def closure_graph():
    """The fixed digraph behind every closure input: the first draw from
    CLOSURE_GRAPH_SEED's stream whose chase creates CLOSURE_TARGET facts
    within CLOSURE_BAND."""
    rng = random.Random(CLOSURE_GRAPH_SEED)
    low = CLOSURE_TARGET * (1 - CLOSURE_BAND)
    high = CLOSURE_TARGET * (1 + CLOSURE_BAND)
    while True:
        edges = set()
        while len(edges) < CLOSURE_EDGES:
            a, b = rng.randrange(CLOSURE_NODES), rng.randrange(CLOSURE_NODES)
            if a != b:
                edges.add((a, b))
        counts = closure_counts(CLOSURE_NODES, edges)
        created = counts["E"] - len(edges) + counts["J"] + counts["P"]
        if low <= created <= high:
            return sorted(edges)


def closure_instance(seed):
    """closure_graph() with seeded node names, facts in the graph's fixed
    order, and the expected counts from the benchmark's own evaluation."""
    rng = random.Random(seed)
    names = rng.sample(range(10 ** 6), CLOSURE_NODES)
    edges = closure_graph()
    text = "".join(f"E(v{names[a]}, v{names[b]}) .\n" for a, b in edges)
    counts = closure_counts(CLOSURE_NODES, edges)
    created = counts["E"] - len(edges) + counts["J"] + counts["P"]
    return text, {"counts": counts, "nulls": counts["P"],
                  "created": created}


# ---------------------------------------------------------------------------
# serve-mix


def _frame(rid, command, args, files):
    return json.dumps({
        "id": rid, "command": command, "args": args,
        "file_names": [name for name, _ in files],
        "file_contents": [text for _, text in files],
    }, separators=(",", ":"))


def _tag(rng, n):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


def _stratified(rng, count):
    """`count` values in [0, 1), one from each of `count` equal strata, in
    seeded order: every session spans the whole range evenly."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def certain_request(rng, rid, size, query_index):
    lo, hi = ASSUMED_CERTAIN_STUDENTS
    students = lo + int(size * (hi - lo + 1))
    pairs = set()
    for s in range(students):
        for c in rng.sample(range(CERTAIN_COURSES), rng.randint(1, 4)):
            pairs.add((s, c))
    prefix = _tag(rng, 3)
    facts = "".join(f"Takes({prefix}{s}, c{c}) .\n"
                    for s, c in sorted(pairs))
    query, answers = CERTAIN_QUERIES[query_index]
    expected = answers(students, len(pairs), len({c for _, c in pairs}))
    frame = _frame(rid, "certain", ["u.tgd", "src.facts", query],
                   [("u.tgd", read_input("university.tgd")),
                    ("src.facts", facts)])
    return frame, {"kind": "certain", "answers": expected}


def chain_text(links, prefix="R"):
    return "".join(
        f"c{i}: {prefix}{i}(x, y) -> exists z . {prefix}{i + 1}(y, z) .\n"
        for i in range(links))


def lint_request(rng, rid, size):
    lo, hi = ASSUMED_LINT_LINKS
    links = round(lo * (hi / lo) ** size)
    text = chain_text(links, "R" + _tag(rng, 4))
    frame = _frame(rid, "lint", ["chain.tgd"], [("chain.tgd", text)])
    # One unused-body-variable note per link plus one chase-complexity
    # note for the whole chain.
    return frame, {"kind": "lint", "unused": links, "complexity": 1}


LABEL = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):", re.MULTILINE)


def classify_request(rng, rid, base):
    suffix = _tag(rng, 4)
    text = LABEL.sub(lambda m: f"{m.group(1)}_{suffix}:", read_input(base))
    text = f"# variant {suffix}\n" + text
    return _frame(rid, "classify", ["deps.tgd"], [("deps.tgd", text)])


def serve_script(seed, session, requests):
    """One session's request frames and their expectations.

    The session's composition is fixed so every session does about the
    same work: exact counts from the assumed shares, certain and lint
    sizes spread evenly over their assumed ranges, every classify base
    equally often, and the assumed share of classify requests repeating
    an earlier classify frame exactly. The seed draws the order, names
    and sizes within each stratum."""
    rng = random.Random(f"{seed}/{session}")
    counts = {kind: round(share * requests)
              for kind, share in ASSUMED_MIX_SHARES}
    counts["classify"] = requests - counts["certain"] - counts["lint"]
    kinds = [kind for kind, _ in ASSUMED_MIX_SHARES
             for _ in range(counts[kind])]
    rng.shuffle(kinds)
    certain_sizes = _stratified(rng, counts["certain"])
    lint_sizes = _stratified(rng, counts["lint"])
    repeats = set(rng.sample(
        range(1, counts["classify"]),
        round(ASSUMED_CLASSIFY_REPEAT_SHARE * counts["classify"])))
    offset = rng.randrange(len(CLASSIFY_BASES))
    script, classify_frames, classify_slot = [], [], 0
    for i, kind in enumerate(kinds):
        rid = f"s{session}r{i}"
        if kind == "certain":
            query = len(certain_sizes) % len(CERTAIN_QUERIES)
            script.append(certain_request(rng, rid, certain_sizes.pop(),
                                          query))
        elif kind == "lint":
            script.append(lint_request(rng, rid, lint_sizes.pop()))
        elif classify_slot in repeats:
            body = json.loads(rng.choice(classify_frames))
            body["id"] = rid
            script.append((json.dumps(body, separators=(",", ":")),
                           {"kind": "classify", "repeat": True}))
        else:
            base = CLASSIFY_BASES[(offset + len(classify_frames))
                                  % len(CLASSIFY_BASES)]
            frame = classify_request(rng, rid, base)
            classify_frames.append(frame)
            script.append((frame, {"kind": "classify", "repeat": False}))
        classify_slot += kind == "classify"
    return script
