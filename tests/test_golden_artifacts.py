"""Golden SHA-256 digests of every artifact of small CLI runs.

The digests pin the exact bytes that ``noise``, ``esm-verify``,
``pullback``, ``attractor`` and ``nse`` write at tiny sizes.  A change to
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
    "noise": "kind = noise\nseed = 11\nensemble = 100\nintervals = 50\n",
    "esm-verify": "kind = esm-verify\nseed = 12\nensemble = 16\nparticles = 100\ndepth = 6\n",
    "pullback": "kind = pullback\nseed = 13\nparticles = 4096\n",
    "nse": "kind = nse\nseed = 14\nsteps = 32\nlookbacks = 2,4\n",
}

# kind -> (exit code, {artifact name: SHA-256}).  The tiny sizes make some
# statistical checks fail; only the bytes matter here.
GOLDEN = {
    "attractor": (0, {
        "cloud.tsv": "2fdb83ecd2b5184de0ecf062cd0929a68792f80282690b1a77b364d622d91448",
        "semidistance.csv": "cbb82b1eb28ab1f9a533a4dff6a890ba565fd2a443e1c0d53f34f6fb4cab6d4b",
        "summary.json": "cb2d48d396cf620a9a8fb929bf48cc2cb66d8e436c2f9ea6d03c16e6f624581a",
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
    "pullback": (0, {
        # the energy distances of the merged-support form
        "distances.csv": "b9e3466be9da7940908b685aba54073740e84c25fac9a69fa66d54e579e17549",
        "measure.tsv": "9e58537fe1f489335ed7a1251bf01aa0702b2cb3d29a7e07bcc5eccbf3f481d8",
        # holds the esm.spread_contraction value of the two-pass spread
        "summary.json": "a3a1b40ac2cf8cb75afe58026f619b9d107c1af7934ce0af3f45eccf1aebd000",
    }),
}


def artifact_digests(kind, tmp_dir):
    cfg_path = os.path.join(tmp_dir, f"{kind}.cfg")
    out_dir = os.path.join(tmp_dir, kind)
    with open(cfg_path, "w") as fh:
        fh.write(CONFIGS[kind])
    code = main(["--config", cfg_path, "--out", out_dir])
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return code, digests


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_artifacts_match_golden_digests(kind, tmp_path, capsys):
    code, digests = artifact_digests(kind, str(tmp_path))
    want_code, want = GOLDEN[kind]
    assert code == want_code
    assert digests == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for kind in sorted(CONFIGS):
            code, digests = artifact_digests(kind, tmp)
            print(f"    {kind!r}: ({code}, {{", file=sys.stderr)
            for name, digest in digests.items():
                print(f"        {name!r}: {digest!r},", file=sys.stderr)
            print("    }),", file=sys.stderr)
