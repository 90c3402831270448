"""approx-bench prints byte-identical tables to recorded digests.

The digests were recorded with the code that still built the feature maps of
all point pairs at once; the estimates are now computed in row blocks and must
keep every printed bit. The cases cover each density at the defaults (200 pairs,
D = 64 .. 4096), 17 pairs at D = 4096 (one 16-row block plus a trailing single
row, folded into it), a single pair, and 1000 pairs (many blocks). Those run at
the default bandwidth 1.0, where dividing by it changes no bit; the 17-pair case
of each density also runs at the non-default bandwidth 0.37, so a dropped or
reordered bandwidth term changes a digest.
"""

import hashlib

import pytest

from rffnet import cli

GOLDEN = [
    (["--density", "rbf"],
     "dc7e0068ad45e81df649d7b905760e9c1728c7a3410cef9c5ddb371dd9ba9b1b"),
    (["--density", "rbf", "--pairs", "17", "--dims", "16,4096"],
     "8c08d59c015cd129dc8365ce681bef172a14cac3e4b94ac6146acd0aec291657"),
    (["--density", "rbf", "--pairs", "1"],
     "81f567fb60c597e9df8f23ca96cbff78fba439eca1fb53d5dace79aef4029920"),
    (["--density", "rbf", "--pairs", "1000"],
     "6558ac0f26a027f78dbd05fa4759ff5c39946dfb64b79eeaa13c252703cf2cd1"),
    (["--density", "laplacian"],
     "9f87993ec840654b38ca64504c8ae457f54efe8316d23fd453de4ce6ad408db0"),
    (["--density", "laplacian", "--pairs", "17", "--dims", "16,4096"],
     "ebbf43c2ba69b47569fdda98b09d9cf7d2a19f42de73b05013a2093a611b9696"),
    (["--density", "laplacian", "--pairs", "1"],
     "e4276c25389096c5e94f79b78599fc36bdcd4e04eb0d4b101596c12cfd5920e5"),
    (["--density", "laplacian", "--pairs", "1000"],
     "95bbaa7d17086186b698d7f702f615b022d0c2344e6912448aba2395319f3d31"),
    (["--density", "cauchy"],
     "9e757e0b99562af7a5309f513430b710968338526e0dcc8721a0cf8333c19ae0"),
    (["--density", "cauchy", "--pairs", "17", "--dims", "16,4096"],
     "856001dd191ddf9ea0fe6b7a7363c74b449f0fa9c36c78e5810fb227e55e2687"),
    (["--density", "cauchy", "--pairs", "1"],
     "3c6fdf3af5503815f6c4883c53a1b0a2ad9010da9fd31cbcab33ccd856c74d6c"),
    (["--density", "cauchy", "--pairs", "1000"],
     "8eb569f74533ac3fcf4e1823716a69dd1778a4b1853243de576d38e329d6ab62"),
    (["--density", "rbf", "--bandwidth", "0.37", "--pairs", "17", "--dims", "16,4096"],
     "92bf765da823a1ff519173bd81726b002bf83c087dba80ea13c2d47a972fde5c"),
    (["--density", "laplacian", "--bandwidth", "0.37", "--pairs", "17", "--dims", "16,4096"],
     "cb3c82f9eae138a42a431db3014b4199533d7300d5e1cd72482f4e14e2f85aa6"),
    (["--density", "cauchy", "--bandwidth", "0.37", "--pairs", "17", "--dims", "16,4096"],
     "c185f7924d54e1ee65a79b4a4061ef8c13f4f90b3cebdf71928356b9271eb6a4"),
]


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_approx_bench_table_golden(args, digest, capsys):
    assert cli.main(["approx-bench", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_approx_bench_out_file_is_the_printed_table(tmp_path, capsys):
    out = tmp_path / "sub" / "bench.csv"
    assert cli.main(["approx-bench", "--density", "cauchy", "--pairs", "17", "--dims", "16,4096",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()
