"""Regenerates the JSON corpus under data/ from the built-in constructors.

Run from the repository root:  python3 scripts/generate_corpus.py
"""
import itertools
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fsclass.constructors import (cyclic_group, group_from_permutations,
                                  pair_groupoid, disjoint_union_groupoid)

OUT = os.path.join(os.path.dirname(__file__), "..", "data")


def write(name, doc):
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote", name)


def group_doc(G):
    return {"order": int(G.order), "table": G.table.tolist(),
            "inverse": G.inverse.tolist()}


def q8_group():
    elems = ['1', '-1', 'i', '-i', 'j', '-j', 'k', '-k']
    base = {('i', 'j'): 'k', ('j', 'k'): 'i', ('k', 'i'): 'j',
            ('j', 'i'): '-k', ('k', 'j'): '-i', ('i', 'k'): '-j'}

    def mulq(a, b):
        sa, sb = a.startswith('-'), b.startswith('-')
        ua, ub = a.lstrip('-'), b.lstrip('-')
        if ua == '1':
            r = ub
        elif ub == '1':
            r = ua
        elif ua == ub:
            r = '-1'
        else:
            r = base[(ua, ub)]
        s = sa ^ sb
        if r.startswith('-'):
            s, r = not s, r[1:]
        return ('-' if s else '') + r

    perms = [[elems.index(mulq(g, x)) for x in elems] for g in ('i', 'j')]
    return group_from_permutations(perms)


def circulant_classes(n, orbits):
    mats = [np.eye(n, dtype=int)]
    for ds in orbits:
        m = np.zeros((n, n), dtype=int)
        for i in range(n):
            for d in ds:
                m[i, (i + d) % n] = 1
        mats.append(m)
    return mats


def petersen_classes():
    verts = list(itertools.combinations(range(5), 2))
    n = len(verts)
    adj = np.zeros((n, n), dtype=int)
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if i != j and not set(u) & set(v):
                adj[i, j] = 1
    other = 1 - np.eye(n, dtype=int) - adj
    return [np.eye(n, dtype=int), adj, other]


def groupoid_doc(Gd):
    a, b = np.nonzero(Gd.table >= 0)     # row-major
    return {"objects": int(Gd.n_objects),
            "arrows": [{"src": int(s), "tgt": int(t)}
                       for s, t in zip(Gd.src, Gd.tgt)],
            "compose": [{"a": int(x), "b": int(y), "ab": int(Gd.table[x, y])}
                        for x, y in zip(a, b)]}


def m2_algebra_doc():
    entries = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        entries.append({"i": 2 * i + j, "j": 2 * k + l,
                                        "k": 2 * i + l, "re": 1.0, "im": 0.0})
    star = [{"i": 2 * i + j, "k": 2 * j + i, "re": 1.0, "im": 0.0}
            for i in range(2) for j in range(2)]
    return {"dim": 4, "unit": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            "structure": entries, "star": star}


def m2_coalgebra_doc():
    # matrix coalgebra of degree 2: Delta(e_ij) = sum_k e_ik (x) e_kj
    entries = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                entries.append({"i": 2 * i + j, "j": 2 * i + k,
                                "k": 2 * k + j, "re": 1.0, "im": 0.0})
    star = [{"i": 2 * i + j, "k": 2 * j + i, "re": 1.0, "im": 0.0}
            for i in range(2) for j in range(2)]
    return {"dim": 4, "counit": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            "Delta": entries, "star": star}


def main():
    os.makedirs(OUT, exist_ok=True)
    for n in range(1, 9):
        write(f"z{n}.json", group_doc(cyclic_group(n)))
    write("s3.json", group_doc(group_from_permutations([[1, 2, 0], [1, 0, 2]])))
    write("s4.json", group_doc(group_from_permutations(
        [[1, 2, 3, 0], [1, 0, 2, 3]])))
    write("d4.json", group_doc(group_from_permutations(
        [[1, 2, 3, 0], [0, 3, 2, 1]])))
    write("q8.json", group_doc(q8_group()))
    n = 5
    write("c5_scheme.json", {"classes": 3, "matrices": [
        m.tolist() for m in circulant_classes(5, [{1, 4}, {2, 3}])]})
    write("petersen_scheme.json", {"classes": 3, "matrices": [
        m.tolist() for m in petersen_classes()]})
    for m in (2, 3, 4):
        write(f"pair{m}_groupoid.json", groupoid_doc(pair_groupoid(m)))
    write("two_z2_groupoid.json", groupoid_doc(
        disjoint_union_groupoid([cyclic_group(2), cyclic_group(2)])))
    write("z3_inversion.json", {"perm": [0, 2, 1]})
    write("m2_algebra.json", m2_algebra_doc())
    write("m2_coalgebra.json", m2_coalgebra_doc())


if __name__ == "__main__":
    main()
