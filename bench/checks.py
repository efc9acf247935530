"""Checks of encode-repair results, from the definitions of an encoding.

An encoding is an integer matrix with entries in {-1, 0, 1, 2}, zero
diagonal (symmetric when undirected) and row sums (and column sums, when
directed) equal to the target degrees; entries 2 and -1 are the defects.
Repair must end, within 3 (undirected) or 5 (directed) 3-switches, at a
simple (di)graph with exactly the target degrees.  The exact choice counts
are recounted here from their definitions and must dominate the bounds.
"""

from __future__ import annotations

import hashlib

import oracles

SWITCH_CAP = {False: 3, True: 5}


def _second_pair_count(mat, n, a1, b1):
    """Ordered (a2, b2): L(a2,b2) = 1, L(a2,b1) = 0, four distinct vertices."""
    count = 0
    for a2 in range(n):
        if a2 in (a1, b1) or mat[a2][b1] != 0:
            continue
        count += sum(1 for b2 in range(n) if mat[a2][b2] == 1 and b2 not in (a1, b1, a2))
    return count


def _third_pair_count(mat, n, a1, b1, a2, b2):
    """Ordered (a3, b3): L(a3,b3) = 1, L(a3,b2) = L(a1,b3) = 0, six distinct vertices."""
    banned = {a1, b1, a2, b2}
    heads = [b3 for b3 in range(n) if b3 not in banned and mat[a1][b3] == 0]
    count = 0
    for a3 in range(n):
        if a3 in banned or mat[a3][b2] != 0:
            continue
        row = mat[a3]
        count += sum(1 for b3 in heads if b3 != a3 and row[b3] == 1)
    return count


def check_case(directed, degrees, Z_pairs, profile, mat, switch_log, result_pairs, first, second, choices):
    """Error messages for one generated, repaired and counted encoding."""
    n = len(degrees)
    errors = []
    if len(mat) != n or any(len(row) != n for row in mat):
        return ["matrix shape"]
    cells = [(u, v) for u in range(n) for v in range(n) if u != v]
    if any(mat[u][u] for u in range(n)):
        errors.append("non-zero diagonal")
    if any(mat[u][v] not in (-1, 0, 1, 2) for u, v in cells):
        errors.append("entry outside {-1,0,1,2}")
    if directed:
        want_out = [b for _, b in degrees]
        want_in = [a for a, _ in degrees]
        if [sum(row) for row in mat] != want_out:
            errors.append("row sums differ from out-degrees")
        if [sum(mat[u][v] for u in range(n)) for v in range(n)] != want_in:
            errors.append("column sums differ from in-degrees")
        counted = cells
    else:
        if any(mat[u][v] != mat[v][u] for u, v in cells):
            errors.append("not symmetric")
        if [sum(row) for row in mat] != list(degrees):
            errors.append("row sums differ from degrees")
        counted = [(u, v) for u, v in cells if u < v]
    got = (sum(mat[u][v] == 2 for u, v in counted), sum(mat[u][v] == -1 for u, v in counted))
    if got != tuple(profile):
        errors.append(f"defect profile {got}, requested {tuple(profile)}")
    present = set(map(tuple, Z_pairs))
    if not directed:
        present |= {(v, u) for u, v in present}
    if any(not 0 <= mat[u][v] + ((u, v) in present) <= 2 for u, v in cells):
        errors.append("not consistent with the reference state")
    if len(switch_log) > SWITCH_CAP[directed]:
        errors.append(f"repair took {len(switch_log)} switches")
    if any(len(set(tup)) != 6 for _, tup in switch_log):
        errors.append("a 3-switch without six distinct vertices")
    try:
        oracles.check_degrees(n, result_pairs, degrees, directed)
    except ValueError as exc:
        errors.append(f"repaired state: {exc}")
    (a1, b1), (a2, b2) = first, second
    exact = (_second_pair_count(mat, n, a1, b1), _third_pair_count(mat, n, a1, b1, a2, b2))
    for stage, res, recount in zip(("second_pair", "third_pair"), choices, exact):
        if res["exact"] != recount:
            errors.append(f"{stage} count {res['exact']}, recounted {recount}")
        if res["exact"] < res["bound"]:
            errors.append(f"{stage} count {res['exact']} below its bound {res['bound']}")
    return errors


def check_encodings(job, starts, kept):
    """Check every case; return (errors, digest of all outputs, total switches)."""
    digest = hashlib.sha256()
    errors = []
    switches = 0
    for seq_idx, profile, L, res, first, second, choices in kept:
        seq = job["sequences"][seq_idx]
        directed = seq["directed"]
        degrees = [tuple(p) for p in seq["degrees"]] if directed else seq["degrees"]
        Z = starts[seq_idx]
        z_pairs = Z.arcs if directed else Z.edges
        result_pairs = res.result.arcs if directed else res.result.edges
        case_errors = check_case(
            directed, degrees, z_pairs, profile, L.matrix, res.switch_log, result_pairs, first, second, choices
        )
        errors.extend(f"case {profile} on sequence {seq_idx}: {e}" for e in case_errors)
        switches += len(res.switch_log)
        digest.update(repr((L.matrix, res.switch_log, sorted(result_pairs), choices)).encode())
    return errors, digest.hexdigest(), switches
