"""Golden SHA-256 digests of every artifact of small CLI runs.

The digests pin the exact bytes that ``noise``, ``esm-verify``,
``pullback``, ``attractor`` and ``nse`` write at tiny sizes; ``nse`` also
runs at grid sizes 18, whose transforms keep an explicit n**2 scale, and 32.
The exact kinds, ``oracle`` (at its default depth and at depth 16) and
``counterexamples``, are pinned too.  A change to
the path store, the keyed hashing, the spectral model, the measure geometry
or a runner that alters any stored bit shows here as a digest mismatch.  To
print the digests of the current code:

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import hashlib
import os
import sys

import pytest

from stochflow.cli import main

CONFIGS = {
    "attractor": "kind = attractor\nseed = 15\nbox_points = 200\n",
    "counterexamples": "kind = counterexamples\nseed = 17\n",
    "noise": "kind = noise\nseed = 11\nensemble = 100\nintervals = 50\n",
    "esm-verify": "kind = esm-verify\nseed = 12\nensemble = 16\nparticles = 100\ndepth = 6\n",
    "pullback": "kind = pullback\nseed = 13\nparticles = 4096\n",
    "nse": "kind = nse\nseed = 14\nsteps = 32\nlookbacks = 2,4\n",
    "nse-18": "kind = nse\nseed = 14\nsteps = 32\nlookbacks = 2,4\nresolution = 18\n",
    "nse-32": "kind = nse\nseed = 14\nsteps = 32\nlookbacks = 2,4\nresolution = 32\n",
    "oracle": "kind = oracle\nseed = 18\n",
    "oracle-16": "kind = oracle\nseed = 18\ndepth = 16\n",
}

# case -> (exit code, {artifact name: SHA-256}).  The tiny sizes make some
# statistical checks fail; only the bytes matter here.
GOLDEN = {
    "attractor": (0, {
        "cloud.tsv": "2fdb83ecd2b5184de0ecf062cd0929a68792f80282690b1a77b364d622d91448",
        "semidistance.csv": "cbb82b1eb28ab1f9a533a4dff6a890ba565fd2a443e1c0d53f34f6fb4cab6d4b",
        "summary.json": "cb2d48d396cf620a9a8fb929bf48cc2cb66d8e436c2f9ea6d03c16e6f624581a",
    }),
    "counterexamples": (0, {
        "summary.json": "1d9a119cf8ed7725cb9b19d6189e78fd22aac9c1573b7842e7d66c2c8fd75f30",
    }),
    "esm-verify": (1, {
        "pullback_points.csv": "7b034af6fbd71439d8e80cf97292206f4f3bdeec9e72241d09d9d876336d9377",
        # holds the energy distances of the merged-support form
        "summary.json": "9f485fa43e73fcb7e235a6c97853808440e332277ca059cddf42d73e0f6bfb52",
    }),
    "noise": (1, {
        # each band check stores its half-width as threshold and its centre as target
        "summary.json": "57004b20f6449e24fa2991f53efb1bb7fba6e48ddaf482f5577fcc79c06f945e",
        "w1_samples.csv": "cdf7a6144d52dfdab342378cdfbca7085716593276a796a5e3b8b063721a63a2",
    }),
    "nse": (1, {
        "absorbing.csv": "e0a5df968b277d8c6930e3a3c761a0de24b046d08cee2cf9f1e502893eb37233",
        # beta_hat from the exact spectrum of the advection form
        "energy.csv": "11de1fd8371cdfd221342847fba217183c5de63c0e5442ed0a1a766a577bf9e4",
        "summary.json": "16cf9450cc3564f49b03356766891d15b37b51b9698500461d2b118cd9daa599",
    }),
    "nse-18": (1, {
        "absorbing.csv": "9a14c472a4ba0b1412d28fbcbcdd9ef57f8627418338f14791e36c82c5099db8",
        "energy.csv": "896fc168ee22bd4e7931e3fddd337f6e97d696bcb8ff1b4dcc82211db8d26efd",
        "summary.json": "85f38e4b47215d2a2457ae590e73bf490d00218de91c982f0c51e1b9e675079d",
    }),
    "nse-32": (1, {
        "absorbing.csv": "c1d4e7ba98d0a775edea47e372b0715d4505b77349c1860d864218e87b28c3a4",
        "energy.csv": "85dc1de65a64a0472c0f41949e353634e59470d7ec78d745efd557018c3e32a0",
        "summary.json": "122942e7b6791aa6d4b18730d204511d20f0a5cc6bae542a5c0e854d8dafeb8c",
    }),
    "oracle": (0, {
        "summary.json": "dea1f297eaa9cbec26fe942cdb408fc37bdd2491f1a377c749e2f5ad48eede7f",
    }),
    # the martingale check at the enumeration limit, 2**16 words
    "oracle-16": (0, {
        "summary.json": "f92da0c9356cecb946eb3327683b560e91a12adda286aabeee2608625fbd1b8e",
    }),
    "pullback": (0, {
        # the energy distances of the merged-support form
        "distances.csv": "b9e3466be9da7940908b685aba54073740e84c25fac9a69fa66d54e579e17549",
        "measure.tsv": "9e58537fe1f489335ed7a1251bf01aa0702b2cb3d29a7e07bcc5eccbf3f481d8",
        # holds the esm.spread_contraction value of the two-pass spread
        "summary.json": "a3a1b40ac2cf8cb75afe58026f619b9d107c1af7934ce0af3f45eccf1aebd000",
    }),
}


def artifact_digests(case, tmp_dir):
    cfg_path = os.path.join(tmp_dir, f"{case}.cfg")
    out_dir = os.path.join(tmp_dir, case)
    with open(cfg_path, "w") as fh:
        fh.write(CONFIGS[case])
    code = main(["--config", cfg_path, "--out", out_dir])
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return code, digests


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_artifacts_match_golden_digests(case, tmp_path, capsys):
    code, digests = artifact_digests(case, str(tmp_path))
    want_code, want = GOLDEN[case]
    assert code == want_code
    assert digests == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CONFIGS):
            code, digests = artifact_digests(case, tmp)
            print(f"    {case!r}: ({code}, {{", file=sys.stderr)
            for name, digest in digests.items():
                print(f"        {name!r}: {digest!r},", file=sys.stderr)
            print("    }),", file=sys.stderr)
