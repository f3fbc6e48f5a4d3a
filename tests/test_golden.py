"""Golden byte pins: sha256 digests of the report and of every written file
for the CLI commands the benchmark runs.

A change that claims the same outputs must leave every digest here as it
is. The unitaries are the benchmark's recipe (QR of a complex Gaussian
matrix with the phases of R's diagonal folded into Q), written with
``json.dumps`` as the benchmark writes them.
"""

import hashlib
import io
import json
import math

import numpy as np
import pytest

from etbell import cli

AUDIT = ("--trials", "20000", "--seed", "1")
STREAM = ("--trials", "10000", "--seed", "1")

# case name -> (argv, files the command writes)
COMMANDS = {
    "lhv table1": (("lhv", "table1"), ()),
    "lhv search dependent": (("lhv", "search", "--selection", "dependent"), ()),
    "lhv search independent": (("lhv", "search", "--selection", "independent"), ()),
    "lhv scale": (("lhv", "scale", "--target", "2.828427"), ()),
    "source audit table1": (("source", "audit", "--model", "table1", *AUDIT), ()),
    "source audit quantum": (("source", "audit", "--model", "quantum", *AUDIT), ()),
    "network cascade 4": (("network", "cascade", "--n", "4"), ()),
    **{
        f"mermin-quantum {n}": (("mermin-quantum", "--n", str(n)), ())
        for n in range(3, 10)
    },
    "mermin-quantum 3 --sweep 36": (
        ("mermin-quantum", "--n", "3", "--sweep", "36", "--sweep-out", "sweep.csv"), ("sweep.csv",)
    ),
    "mermin-quantum 5 --settings mabk": (("mermin-quantum", "--n", "5", "--settings", "mabk"), ()),
    "lhv stream --out": (("lhv", "stream", *STREAM, "--out", "lhv.csv"), ("lhv.csv",)),
    "source stream --out": (("source", "stream", *STREAM, "--out", "source.csv"), ("source.csv",)),
}

# (modes, seed) of each benchmark-recipe unitary
UNITARIES = [(16, 1), (16, 7), (64, 1), (64, 7)]

DIGESTS = {
    "lhv table1": {
        "stdout": "76003bf5cddb563d3fb3d8c8f7f8b01a02e4838c905942e1d23497cac6bb8216",
    },
    "lhv search dependent": {
        "stdout": "39d6be80fe8341b1fff02759e3ab58f39408f2bf28d33a0aaa6b1322d9de87cf",
    },
    "lhv search independent": {
        "stdout": "e0217b0384c3b17352a329b6da45097418e5493ac797349af9f5c2112e0ce681",
    },
    "lhv scale": {
        "stdout": "3f52fb20026078c0814ceb25aba8c62937bb2b2a6440f03a2bbc931e069b9d59",
    },
    "source audit table1": {
        "stdout": "30a6aa491e58d5454a7b5656d100d5fdfd0f1e8e2c1de6d60bfe25d7d2e2d1be",
    },
    "source audit quantum": {
        "stdout": "03b50f4c26f28f9a648792330c8e528f9695026c685807858a637bec4923e62a",
    },
    "network cascade 4": {
        "stdout": "41ecadcb6894b46b75749c9b123bfd1d5c7904b58a42c14674aafa1f1c752584",
    },
    "mermin-quantum 3": {
        "stdout": "75aef1e9961177500e93dbea8923dc2f15d38586e916814fca42db5af96d4e32",
    },
    "mermin-quantum 4": {
        "stdout": "bfb40953a2bc5fe8882832695aaf6440af1c15777d4665ac3d0c85343154add0",
    },
    "mermin-quantum 5": {
        "stdout": "54591ea70040c6d5dc863c51660002bef6a20c3c9b49552018ae844bf59a9d97",
    },
    "mermin-quantum 6": {
        "stdout": "c10c5236e8af4127c5eaa653d0a21f09bf1e2a559b41e832b1681c36b0576e1f",
    },
    "mermin-quantum 7": {
        "stdout": "5be1cadd7aa874f707562ac684b4fc5daf52d30b8bd73049d22733497edf5d48",
    },
    "mermin-quantum 8": {
        "stdout": "869609712faa21ccf7012e6892c2551f5d4066e32caeec8aa79208414b37a8a6",
    },
    "mermin-quantum 9": {
        "stdout": "871e08f9bbe74623a20a883b82deff74c4160b8339c3150eed22ddc74abebab0",
    },
    # the MABK offsets' rotated settings, at an n where the yx default reads mu = 0
    "mermin-quantum 5 --settings mabk": {
        "stdout": "95e3f3a822cc86ac9366766f475cd865e4231eee7dea23abda505bdb066b37a1",
    },
    # the phase sweep's rotated settings are Python complex rows; the digests fix their bits
    "mermin-quantum 3 --sweep 36": {
        "stdout": "e0d197299dd6edc878b425042a9ffc9f86763f1be58309e89165544c3639658f",
        "sweep.csv": "3316a22eee918de24ca3387e3b40d4d00f100995a8464826d9a768e988ef75b0",
    },
    "lhv stream --out": {
        "stdout": "e74abb38a5dbfd5167a2961768f3b8659e199ff04ca46b541bc61fb116dcec0c",
        "lhv.csv": "0118da652a2230ae1f52d313bee93d7f099ab905b857bcd5002fed2aea478703",
    },
    "source stream --out": {
        "stdout": "66256aa5dee7775bd7523f8e4fa2d37287e86dd29592269b44f8533844f87b59",
        "source.csv": "d8bbaf9d787938a36fe33b999ab82caaab7bdbbf42ef49abf248eb9e049a9686",
    },
    "mesh 16 seed 1": {
        "decompose": {
            "stdout": "6466234e2b2277061233ee4927d9975fcfaaad25cfdb9170104f556e61968fe7",
        },
        "decompose --out": {
            "stdout": "450cb45085e42c714af56d23a49eac129d784c91595469dcd15ffe81e0690f94",
            "mesh.json": "ccdd7f89df0ea84c375a789a5276f4954c837b9cf31f50427ecb2f0f7c93a5b2",
        },
        "verify": {
            "stdout": "7d21a4b1301fd353d608688b4fa84fd39fbaf2ed31dd8575c70190f255dbae52",
        },
    },
    "mesh 16 seed 7": {
        "decompose": {
            "stdout": "fc737f7f2bd2091c6c828d179cae5d4e63863f12e28b114955fc703e744b49d2",
        },
        "decompose --out": {
            "stdout": "e5a5983b7363a7251f2ae1b0bb4bb0ce1b1918b92ba3a996819f8b5316804d60",
            "mesh.json": "5bacec50dc1e0c367d5a6962a96b506ab5ee0dac5cbe67400ed0efe4833ef7c6",
        },
        "verify": {
            "stdout": "7d19f362e2f756723c95bbab0bcdb2d368a6c47439253707d3e71c000939473d",
        },
    },
    "mesh 64 seed 1": {
        "decompose": {
            "stdout": "f35d24a6c062667fae5987abf2c05e8ea69d3dc456a07918d4f21a0c00f9720c",
        },
        "decompose --out": {
            "stdout": "1b886929ad0c4303a1f71131000c7a35891c509f8a67c40c91f8f8a5676a12cb",
            "mesh.json": "b3840ca87a90394c1f7959256504eeea940bed6322d4c09a0607c591718d0737",
        },
        "verify": {
            "stdout": "cb757a660fe785aed3ddb1915449c7822f0118c4d3d5c1d34c372c6608165c1e",
        },
    },
    "mesh 64 seed 7": {
        "decompose": {
            "stdout": "fe32e7043411037016fbc70ac1aa32d1b53f084f3ec3c60865456024a8e3f1a1",
        },
        "decompose --out": {
            "stdout": "1409e51c01db9461f84c3d31f7bc1bf9e0158edfee15c07ad1cb915c93743dc5",
            "mesh.json": "0ebb4cec8d79a11b02ad684eaa1cc0987681558b534ea376d9c42082b8c663b9",
        },
        "verify": {
            "stdout": "fdd2f46badb7d6df9335fabd506bece99ec6c115cfaf10052a937eeabfe0ad54",
        },
    },
}


def random_unitary_json(modes: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / abs(d))
    return {"rows": modes, "cols": modes, "entries": [[c.real, c.imag] for c in q.ravel().tolist()]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv, files) -> dict:
    """Digests of the report and of each written file, in the current
    directory."""
    buf = io.StringIO()
    assert cli.main(list(argv), stdout=buf) == 0
    out = {"stdout": _sha(buf.getvalue().encode())}
    for name in files:
        with open(name, "rb") as fh:
            out[name] = _sha(fh.read())
    return out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, files = COMMANDS[name]
    assert run_digests(argv, files) == DIGESTS[name]


@pytest.mark.parametrize("modes, seed", UNITARIES)
def test_mesh_bytes_are_pinned(tmp_path, monkeypatch, modes, seed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unitary.json").write_text(json.dumps(random_unitary_json(modes, seed)))
    inline = run_digests(("network", "decompose", "--in", "unitary.json"), ())
    to_file = run_digests(
        ("network", "decompose", "--in", "unitary.json", "--out", "mesh.json"), ("mesh.json",)
    )
    verified = run_digests(("network", "verify", "--in", "mesh.json"), ())
    got = {"decompose": inline, "decompose --out": to_file, "verify": verified}
    assert got == DIGESTS[f"mesh {modes} seed {seed}"]
