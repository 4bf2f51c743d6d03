"""Report golden digests over Q and F_p.

The benchmark's report digests cover sheaves over Z only, and ``random_sheaf``
over Q never prints a fraction.  These digests pin the bytes of
``sheaf_to_text`` over Z, F_7 and Q on hand-made sheaves with negative and
non-integer entries, and the text and JSON reports of ``pushforward``,
``basechange`` and ``decompose`` on seeded inputs over Q and F_3.  Both were
recorded while scalars were still printed through a type test of their own
and base change still pulled back the whole pushforward.
"""

import hashlib
from random import Random

from sheafkit.cli import parse_sheaf, parse_space, run, sheaf_to_text, space_to_text
from sheafkit.linalg import GF, QQ
from sheafkit.randgen import random_monotone_map, random_poset, random_sheaf

SHEAF_TEXT_DIGEST = "22acb9bffb59f9914b34872e6343a040668ef3fa2d0f7bbf17f4c4db75deeadd"
REPORT_DIGEST = "f74a0b54c233663bfd74616f78902a6c650bf55ecb57f7ee2be673360aabdbc4"

TRIANGLE = "space tri\npoints: s m eta\ncovers: s<m m<eta\n"

# one two-term complex at every point and generizations that are scalar
# multiples of the identity, so every square commutes
HAND_MADE = {
    "Z": ("[[-4,0],[6,-9]]", "-1", "3"),
    "F 7": ("[[-4,0],[6,-9]]", "-1", "5"),
    "Q": ("[[-3/2,0/5],[6/3,-22/7]]", "-2/5", "100"),
}


def hand_made_sheaf_text(ring, d, c_s, c_m):
    def scalar(c):
        return f"deg 0 = [[{c},0],[0,{c}]]; deg 1 = [[{c},0],[0,{c}]]"

    stalks = "".join(f"stalk {pt}: deg 0 rank 2; deg 1 rank 2; d_0 = {d}\n"
                     for pt in ("s", "m", "eta"))
    return (f"ring {ring}\nspace tri\n{stalks}"
            f"gen s<m: {scalar(c_s)}\ngen m<eta: {scalar(c_m)}\n")


def map_text(f) -> str:
    t = f.target
    return "\n".join([
        "map f", "target tgt", "points: " + " ".join(t.points),
        "covers: " + " ".join(f"{x}<{y}" for x, y in t.covers),
        "sends: " + " ".join(f"{x}->{y}" for x, y in f.mapping)]) + "\n"


def report_argvs(tmp_path):
    """Seeded pushforward, basechange and decompose command lines, text and
    JSON, over Q and F_3."""
    rng = Random("report-golden")
    for i in range(30):
        ring = (QQ, GF(3))[i % 2]
        m = random_poset(rng, 6)
        k = random_sheaf(rng, m, ring, max_pieces=3)
        f = random_monotone_map(rng, m, random_poset(rng, 4))
        files = {"space": space_to_text("src", m), "sheaf": sheaf_to_text(k, "src"),
                 "map": map_text(f)}
        args = []
        for opt, text in files.items():
            path = tmp_path / f"{i}.{opt}"
            path.write_text(text)
            args += [f"--{opt}", str(path)]
        for cmd in ("pushforward", "basechange", "decompose"):
            n_files = 4 if cmd == "decompose" else 6
            for extra in ([], ["--json"]):
                yield [cmd] + args[:n_files] + extra


def test_sheaf_text_golden_digest():
    _, m = parse_space(TRIANGLE)
    h = hashlib.sha256()
    for ring, parts in HAND_MADE.items():
        text = sheaf_to_text(parse_sheaf(hand_made_sheaf_text(ring, *parts), "tri", m), "tri")
        h.update(text.encode())
    assert h.hexdigest() == SHEAF_TEXT_DIGEST


def test_functor_reports_golden_digest(tmp_path):
    h = hashlib.sha256()
    for argv in report_argvs(tmp_path):
        text, code = run(argv)
        assert code == 0, (argv, text)
        h.update(f"{argv[0]} {'--json' in argv}\n{text}\n".encode())
    assert h.hexdigest() == REPORT_DIGEST
