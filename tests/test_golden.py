"""Every output file of sixteen CLI commands, pinned byte for byte.

The commands cover all four subcommands on the shipped scenarios. Each file's
sha256 is compared with a recorded digest, so any change to the bytes of a
result fails here. A change that alters results on purpose records the new
digests in DIGESTS and says which files changed.

The digests depend on the platform's libm ``cos`` and ``sin``, whose last
bit may differ between C libraries, so they are pinned for one platform:
CI runs ubuntu only.
"""

import hashlib
import os

import pytest

from mcpursuit.cli import EXIT_OK, main

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
SHIPPED = ("circling_evader", "ppng_lateral", "random_weave", "sine_weave", "straight_chase")


def _scenario(name):
    return ["--scenario", os.path.join(SCENARIOS, f"{name}.txt")]


#: (name, argv without --out); the name is also the output directory.
COMMANDS = (
    [(f"run-{s}", ["run", "--figure"] + _scenario(s)) for s in SHIPPED]
    + [(f"run-{s}-stride1", ["run", "--figure", "--set", "sample_stride=1"] + _scenario(s))
       for s in SHIPPED]
    + [(f"compare-{s}", ["compare", "--figure"] + _scenario(s))
       for s in ("sine_weave", "straight_chase")]
    + [
        ("sweep-sine_weave", ["sweep", "--gains", "1,3,9", "--figure"] + _scenario("sine_weave")),
        ("sweep-straight_chase", ["sweep", "--gains", "1,3"] + _scenario("straight_chase")),
        ("certify-random_weave", ["certify"] + _scenario("random_weave")),
        ("certify-verify-sine_weave",
         ["certify", "--verify", "--figure"] + _scenario("sine_weave")),
    ]
)

DIGESTS = {
    "certify-random_weave/certificate.json":
        "bd6a8456334110cb490ce8b33048cc008a521a643d9a424ba2271d6ec822b556",
    "certify-verify-sine_weave/certificate.json":
        "06d00fcbe3d277f1f294c3a456f56b0b64435dc0428a16ac4856d8a0c46e937d",
    "certify-verify-sine_weave/figure.svg":
        "e25b635f3e41d41c7d9fb80fea50098df47fbd94e21e0505be7bd407b5c59543",
    "certify-verify-sine_weave/summary.json":
        "2c2c393c20ddc2bd88c660943cad007a43cf2300885904b2d3eabb44546fa34a",
    "certify-verify-sine_weave/trajectory.csv":
        "79426c63beccbdda0731f0c9a4c2de2c4c3e804e569b059028481ca079c24e4e",
    "compare-sine_weave/comparison.csv":
        "7e560290b327b7539a4a65790916ee5f2a631d69b82b76af390e2e224fb6c20b",
    "compare-sine_weave/exact/figure.svg":
        "a0438cc467b3cc3b5f720b2a82dfe47ee4465a2133d70f00195f241aba2bc762",
    "compare-sine_weave/exact/summary.json":
        "128597de6123ff5bf3970c30bd2e6a8e05753eed2555be16885929a5b72399a4",
    "compare-sine_weave/exact/trajectory.csv":
        "c131c4dd65609db3651e117816242bb8da9f9cde457e523e56878242602f9018",
    "compare-sine_weave/mcpg/figure.svg":
        "37a2e7a62fd4078b88a2a36c47ad698a5d52380b63730d290728c6f7c7ec32c2",
    "compare-sine_weave/mcpg/summary.json":
        "40ba3b49ea5fe8a012f806b50538aacd7cbc0b76340d3f18b919bf9e44d2b8fb",
    "compare-sine_weave/mcpg/trajectory.csv":
        "86eecb552f4f8646b48f73fe379bb7a29bd00b8a1ef4f07f8b0faf1c72fad955",
    "compare-sine_weave/overlay.svg":
        "68bf2ac10c6afc4658d593db67e1aebc0d88b741eb8f2b168775de2cb81fabd5",
    "compare-sine_weave/ppng/figure.svg":
        "173c05d1a6e376107d5ae1f53e5abbb3beb68f052d54220b9868fc6e8fafd6da",
    "compare-sine_weave/ppng/summary.json":
        "8637c35179809688146304b80f651475f23efa64a9dc4f969b7dbf0f1bdf0bae",
    "compare-sine_weave/ppng/trajectory.csv":
        "ba5b4c1ce9067f2a8222fc8547f0b3ba0a9b485326290cd1210714c7f25ea831",
    "compare-straight_chase/comparison.csv":
        "260e4617fac35bdf3ad393b4102bc89a0f49a926ca43b069b02510595dfede56",
    "compare-straight_chase/exact/figure.svg":
        "6828c588bf59c2bc2059c0878a17d69520c69444a0c9f07dd654aa10409112e6",
    "compare-straight_chase/exact/summary.json":
        "62050fead743f51fa54095c3139d17416222dbd8e73f5cabf355981c1af79013",
    "compare-straight_chase/exact/trajectory.csv":
        "6a74b9d6dcd483715b6b1ed0c8fbb9172eecabb14d69bb1f26487d05f6bf97ab",
    "compare-straight_chase/mcpg/figure.svg":
        "6828c588bf59c2bc2059c0878a17d69520c69444a0c9f07dd654aa10409112e6",
    "compare-straight_chase/mcpg/summary.json":
        "62050fead743f51fa54095c3139d17416222dbd8e73f5cabf355981c1af79013",
    "compare-straight_chase/mcpg/trajectory.csv":
        "6a74b9d6dcd483715b6b1ed0c8fbb9172eecabb14d69bb1f26487d05f6bf97ab",
    "compare-straight_chase/overlay.svg":
        "16451228d2f93d0942c9824e62e7c467b3e8769ccc0e08e1e0802c1f47bcbd60",
    "compare-straight_chase/ppng/figure.svg":
        "0c1424d667839c34b964609ace23a7072843ff7dd57550de1b69bba5fedfbc24",
    "compare-straight_chase/ppng/summary.json":
        "d0e81706d1d8a16e45a749d43b9c716810909d6a2d51d784db2ddbeaa4c3dd76",
    "compare-straight_chase/ppng/trajectory.csv":
        "9d8e5085111a568beab2d74f3213b3223e038f58e15069bf8329ad00d514a6bb",
    "run-circling_evader-stride1/figure.svg":
        "e856034a96f18cdb7f4e389b7828dfcba7deecb82e4879f7891486d5316c8293",
    "run-circling_evader-stride1/summary.json":
        "bfeb5a1085b1268d1c55bd31c71fa24d85026c0067986216c775a9e1819fa1b0",
    "run-circling_evader-stride1/trajectory.csv":
        "19198b23f374751eb7893b179e47c9f0ab0cf105f857aecaac67673e12dec41f",
    "run-circling_evader/figure.svg":
        "d26818073f8b996aef2f59f8716235665ab8a4a559a56249ffa84d95d443542c",
    "run-circling_evader/summary.json":
        "d227d753d8f231d254d659841143be92b645896f0f442a050f21d5b0a5bb845a",
    "run-circling_evader/trajectory.csv":
        "ee415035094f6f721b0b60acbd58551ab93f6b524fe85abaa8cfbcef738d4d34",
    "run-ppng_lateral-stride1/figure.svg":
        "813ba0b2d1ff633b9c78f769b1f754acd8938db69540218127f5d63a0e875d68",
    "run-ppng_lateral-stride1/summary.json":
        "8b39c58bbadaec020dddc0ab4e3df40f05a5891c8f653d05bffe37939b7dddc5",
    "run-ppng_lateral-stride1/trajectory.csv":
        "7e3c32c3e1d71df1cdf7dedb54032deec3d117deb34c807344ef7c2e6bc6c978",
    "run-ppng_lateral/figure.svg":
        "fd59714b921ebffad4428fc71adf1585eb0451214b48d471f82fb0508f8c925d",
    "run-ppng_lateral/summary.json":
        "a8ae047eaf678345bc8345a4dce6670db396f8c57ae674896b286c9227338058",
    "run-ppng_lateral/trajectory.csv":
        "d796174a3f37987fb44dee7556841d4b2b038a409cf35e5406316162c785a1b5",
    "run-random_weave-stride1/figure.svg":
        "62485f43db305ff05bfcf7591adf10d89860e0d9832fd0e22899eeb72afb63a5",
    "run-random_weave-stride1/summary.json":
        "ff9bac97202a8f525aaee135dcdff818ce934b7158255e2572929265d0f277a7",
    "run-random_weave-stride1/trajectory.csv":
        "0d29c1b73f24fc1e12f5383d4721ca0c2cf40e19016aa54a12600f04f7f4eda3",
    "run-random_weave/figure.svg":
        "41da23d5d2abe21fefc66f8d873d900767f014c7faf0206d5b47fdb08c1d4c1c",
    "run-random_weave/summary.json":
        "dad8ffbad475cfa26c2e94ecc284533b56d83b2cdb844ebad0737f29b8b1ec92",
    "run-random_weave/trajectory.csv":
        "7a4a11126ed628e512c185b93350337465383b7d59255187c0a21b6fd54c5fc6",
    "run-sine_weave-stride1/figure.svg":
        "efe98662c334d41c619613fd388365dc8985a5a51f9013a8144b70f245faf7b0",
    "run-sine_weave-stride1/summary.json":
        "956f089599233e9e1c2c840ff3ddd198511fc44018edbd2ca82475d1bb306050",
    "run-sine_weave-stride1/trajectory.csv":
        "5861f9f57a72d0758a97488badc4c8e866f177255875dac319d7f7ed66319ed1",
    "run-sine_weave/figure.svg":
        "37a2e7a62fd4078b88a2a36c47ad698a5d52380b63730d290728c6f7c7ec32c2",
    "run-sine_weave/summary.json":
        "40ba3b49ea5fe8a012f806b50538aacd7cbc0b76340d3f18b919bf9e44d2b8fb",
    "run-sine_weave/trajectory.csv":
        "86eecb552f4f8646b48f73fe379bb7a29bd00b8a1ef4f07f8b0faf1c72fad955",
    "run-straight_chase-stride1/figure.svg":
        "d34d207fdfd195ddb16fec271b545bca18203ee35042facdf1dbb1824b2334db",
    "run-straight_chase-stride1/summary.json":
        "aa4cb3abdb4502ee6d4663c4b867cf3a478446f254e848da7455b70ec052dfad",
    "run-straight_chase-stride1/trajectory.csv":
        "7f1f4861cc9740498181971d650e5f8f9460529a7a7398c95882500dca69f8d4",
    "run-straight_chase/figure.svg":
        "6828c588bf59c2bc2059c0878a17d69520c69444a0c9f07dd654aa10409112e6",
    "run-straight_chase/summary.json":
        "62050fead743f51fa54095c3139d17416222dbd8e73f5cabf355981c1af79013",
    "run-straight_chase/trajectory.csv":
        "6a74b9d6dcd483715b6b1ed0c8fbb9172eecabb14d69bb1f26487d05f6bf97ab",
    "sweep-sine_weave/gain_x1/figure.svg":
        "37a2e7a62fd4078b88a2a36c47ad698a5d52380b63730d290728c6f7c7ec32c2",
    "sweep-sine_weave/gain_x1/summary.json":
        "40ba3b49ea5fe8a012f806b50538aacd7cbc0b76340d3f18b919bf9e44d2b8fb",
    "sweep-sine_weave/gain_x1/trajectory.csv":
        "86eecb552f4f8646b48f73fe379bb7a29bd00b8a1ef4f07f8b0faf1c72fad955",
    "sweep-sine_weave/gain_x3/figure.svg":
        "d50d9106ac1c895fc11d82c5ecfd3126abfdd45db4c7d3fc99fcf2261f4388f4",
    "sweep-sine_weave/gain_x3/summary.json":
        "cb13348599d7ae12a70bae7b08c894c6816ab38db06f3899dd03e6002f5c5e88",
    "sweep-sine_weave/gain_x3/trajectory.csv":
        "99ca3f88fdb27248d477f61027df190caecbe821e31bf5ac7a1ec85341c8bbc7",
    "sweep-sine_weave/gain_x9/figure.svg":
        "2d4f5cca27ae09ac9d2b6b047ec3cc2150b90cab0b3e416f52fe0d908b99aabe",
    "sweep-sine_weave/gain_x9/summary.json":
        "621ca8645b7e5b84b3d8a1281fbd34406ed9baf7133ddde1b4b95dcdb59ce81d",
    "sweep-sine_weave/gain_x9/trajectory.csv":
        "d21d0050d02ab9d258e585c617d325e45f331ff5545ea788a3a42eda81b6e814",
    "sweep-sine_weave/sweep.csv":
        "60254f3d30ba127337f53e7f087d50d6fddf012bc767a5fef7ea24b448a6adab",
    "sweep-straight_chase/gain_x1/summary.json":
        "960971a272c4df66f521cb4f57a66177e5c8fd7cf230375e8463a1eedae227b8",
    "sweep-straight_chase/gain_x1/trajectory.csv":
        "77cd2d34e670950561fbd59c94dd8637cefcdbe925d3d6b75d0c0925e6440fd9",
    "sweep-straight_chase/gain_x3/summary.json":
        "efec6bc53f68d2c13e157927316be31b782e462da32aaf2e27250594a7608d04",
    "sweep-straight_chase/gain_x3/trajectory.csv":
        "d2073f24ca085330138301e6bddfcfa90deae472f35e85d4fb5e77b19890f22d",
    "sweep-straight_chase/sweep.csv":
        "89ac54faf01f0da7abe344c600296eeb41ec0a366497eb087d6a54a290f088b2",
}


def output_digests(out, argv):
    """Run one command into ``out``; return {path relative to out: sha256}."""
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_OK
    digests = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            digests[os.path.relpath(path, out).replace(os.sep, "/")] = digest
    return digests


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_outputs_match_the_recorded_bytes(name, argv, tmp_path, capsys):
    got = output_digests(tmp_path / name, argv)
    capsys.readouterr()
    want = {path[len(name) + 1:]: d for path, d in DIGESTS.items() if path.startswith(name + "/")}
    assert got == want
