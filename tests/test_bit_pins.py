"""Bit pins: sha256 digests of every built-in model's simulated outputs,
and of density estimates on the grid.

The digests were recorded from a reference build and must never change:
tables regenerate from (model, seed, N) alone, so any change to the
simulation kernel that alters one bit of a table, of the k nearest rows,
of a validation block or of a restricted draw fails here.  The sizes sit
at the chunk edges (2^15 - 1 and 2^15 + 7 rows) and at the smallest table.
The grid estimates are those of synthetic accepted sets at p = 1 and 2,
with both kernels.  The ``prop1_calibration`` pins are its p-values, for both oracle kinds.
Then come the pins of ``table.bin`` and ``table.csv`` files ``abc sample``
writes, at the smallest table and at three chunks plus 17 rows, then
those of the ``mise_estimate`` and ``moment_consistency`` reports, and last
those of the files epsilon-mode ``abc estimate`` writes.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from knnabc import (cli, core, generate_table, get_model, mise_estimate, model_ids,
                    moment_consistency, prop1_calibration, sample_restricted, simulate_knn)
from knnabc.estimators import default_grid, estimate_density, make_kernel

SEED = 20_261_018
SIZES = (2, (1 << 15) - 1, (1 << 15) + 7)

# (s0, sampler radius) per model: s0 inside the summary support, and a
# radius that accepts a few per cent of proposals
_SETTINGS = {
    "gaussian_conjugate_1d": ([0.5], 0.05),
    "uniform_box_1d": ([0.5], 0.01),
    "gauss_5d": ([1.0, 0.0, 0.0, 0.0, 0.0], 1.0),
    "uniform_ball_1d": ([0.5], 0.02),
    "gaussian_mean_demo": ([0.3], 0.05),
}

PINS = {
    "gauss_5d": {
        "table_2":
            "ae2aa7a961745acb67d49f73fe3724d4ec12233f42359e122f477c192161c36c",
        "knn_2":
            "757c9f189e11dab5c85b7cfb1f2c73026eb250ae416b078039a5a9540e07dd3f",
        "block_2":
            "58e724c59604a90c224ee9f97a2c9d3810fa1b496ba4ee6d65771e1bcc8fd261",
        "table_32767":
            "40ae0658bb43023ea537b9116bd8c7a9b85e183b6f71b0fece3d4a85139baed8",
        "knn_32767":
            "434f3f910600ad0079de66fea5e8fc5c41f63721c67bec244ec221a8e6d17644",
        "block_32767":
            "0c5fae145fc9ece57e6e07ca5c568af8f8a5595570d1c7a9085813ed24607c4e",
        "table_32775":
            "8473d3541fda6d19d2e9b72aa7dab96559588c68b1bd630927aa25c55dd8e725",
        "knn_32775":
            "434f3f910600ad0079de66fea5e8fc5c41f63721c67bec244ec221a8e6d17644",
        "block_32775":
            "2f94e459370eb3c9e0f470e300edeaee3e47d3de770032cacd893fc8a83f7e9f",
        "restricted":
            "a9bda6e074ef526e4f21c3055106745488f812a3946988d09c06ac98f4e232cb",
    },
    "gaussian_conjugate_1d": {
        "table_2":
            "6509684292188b76c9a5ea630633e214786d122dff99339967168d60c7a3fc02",
        "knn_2":
            "e94bc377f9b29d96a59a6b5fbb6c0a0325f683e5bb9b4b09d5f595895c2c0446",
        "block_2":
            "c13e2e69dc1f727bd233c30256837e6961325fd5342db84bb01a63d5cb9817c5",
        "table_32767":
            "733cfea6c539fe61e3736c271ec598da89ae3b3cb6b2b636d7ece3298bb1c62f",
        "knn_32767":
            "4f4d99914754218a8db3423e4f9eb96797b548d6809de093a2cc49f3cd5ac58f",
        "block_32767":
            "9d6cbb9e0a7d49867dabdc48420449ff81f8e15a8b0ab93aa3d96385422cd709",
        "table_32775":
            "a21f85a441ee86294b58e50861835c78f76b084fdd9c04fae7f6f999b82bd094",
        "knn_32775":
            "4f4d99914754218a8db3423e4f9eb96797b548d6809de093a2cc49f3cd5ac58f",
        "block_32775":
            "cd7cfd9c068b59cd6631204477af1c276b6c79b4bcf38bf4e30efae68cf954f9",
        "restricted":
            "200c03dd391129713cced7c9590a85bc48000c85f262086c37078116bbfcff15",
    },
    "gaussian_mean_demo": {
        "table_2":
            "abbdbe160590595bcfbcb5ff14545e4f01178c042ac149f9fa6a153830fee15b",
        "knn_2":
            "c15fb26b6d0c728c4942bfd9ef9260b57f2f78daf3f2a735440813dfc7f97886",
        "block_2":
            "dfdfa993ce34c3e4ab1cb66da7ca9bbc9bb043ba3d683d7556e592acfc5370d1",
        "table_32767":
            "efd81f46e5450bc6e9c20c05c848b0379961034630d0190d90ff7c06f6c33ee9",
        "knn_32767":
            "4967d168e980b3c702598bf44fe88afb658f348fecd59ea1344d8913271ec752",
        "block_32767":
            "9bfa7e3929154d9f37525bf38f468fc3a65e185b0672dcf0e6d3be8dac07aacd",
        "table_32775":
            "c7e5e5b6111727cde94cde8fe133c037535ede40e70bd2dcc16472a1ee9780ee",
        "knn_32775":
            "4967d168e980b3c702598bf44fe88afb658f348fecd59ea1344d8913271ec752",
        "block_32775":
            "650c1f940b0364bd0e1682a3bea3e7fa12b742db55c58292c91a387b3f9c214c",
        "restricted":
            "299faf5995aa0c6b87947c645446088a9e83f651820875c556130b66fea1a88e",
    },
    "uniform_ball_1d": {
        "table_2":
            "66dbf4d50e8bf9ae4b9435417f6e9512a984e7c527dbb37a7eeabe3456908575",
        "knn_2":
            "92d05e29fa77d739e86420d73caa249d5f1893320ce27e9862e83b002bd00253",
        "block_2":
            "eaceeb5c2a06170b36935a9804c395cf649609e68071c17bd5e0c6135195f878",
        "table_32767":
            "c7f3ac22fcc13bd83f35e348bb8156d0db94b7bfa6af1f190f8869114adba0b8",
        "knn_32767":
            "eb664c2c10aa5db9e867ec4f2ee73a5c215601155bc68156c1cda934a68e31d4",
        "block_32767":
            "a926b6153cfc26f49a2a76b6749264bb46572cadfb6f6f0b957050bea8613e13",
        "table_32775":
            "a2256e173524aba2719cc22ec2b91534769e3066913d1c7c1e6502298cbc389e",
        "knn_32775":
            "eb664c2c10aa5db9e867ec4f2ee73a5c215601155bc68156c1cda934a68e31d4",
        "block_32775":
            "4c9df4562f190fefa100cbc927f114f719562946dcdbcf90469e589dbc1d8c79",
        "restricted":
            "ebfbdf5554761cc8f696a7c9e562de0bdd843cc85dce40da0eb601ee84252c5b",
    },
    "uniform_box_1d": {
        "table_2":
            "1a6d20a3b8abf76cd318edf98065dafb63ed661d89ec41f39b44115cc019f153",
        "knn_2":
            "ea54e59667b5fbcc059e6bb920e15e0e6b1484e77a7ee3c185883fdf9402beb5",
        "block_2":
            "ca7c64052213638be2978a819be273c5aed814972074facd6ccba4049ba685f3",
        "table_32767":
            "00ad750cb8f544b5707ace71cac4bf2a379b9e1668173823c87653264ec4f558",
        "knn_32767":
            "61b1b3c77946ab39c7a42629388da671a135fac2012bddb85f9b6d99e919f83c",
        "block_32767":
            "4eb558949b51b62e32d89f9a3ea3bf4e836cf4de353fe79a809c45e3c6f3edd6",
        "table_32775":
            "c0743b6b658eb27a4fd1e74791b992b6386bcc302b7de7f13edc2a05ef6e8208",
        "knn_32775":
            "61b1b3c77946ab39c7a42629388da671a135fac2012bddb85f9b6d99e919f83c",
        "block_32775":
            "1049a3bc90633f984c53d8fb903af51d45a328ebfcebba4b6aa10dbbb2511bbf",
        "restricted":
            "25f37113fdc1a3e67ec96ce2b5b78a4a6ca9d3ce53e5b292b78ffe218a8d32a6",
    },
}


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _digests(model_id: str) -> dict:
    model = get_model(model_id)
    s0, radius = _SETTINGS[model_id]
    out = {}
    for n in SIZES:
        out[f"table_{n}"] = hashlib.sha256(
            core.table_to_bytes(generate_table(model, n, SEED))).hexdigest()
        acc = simulate_knn(model, n, SEED, s0, max(1, min(n - 1, 600)))
        out[f"knn_{n}"] = _sha(acc.source_indices, acc.distances, acc.ordered_thetas,
                               acc.ordered_summaries, np.float64(acc.radius_next))
        keys = core.table_keys(model, np.arange(SEED, SEED + 3, dtype=np.uint64))
        scratch = core._Scratch(model, len(keys) * min(n, core._CHUNK_ROWS), words=True)
        out[f"block_{n}"] = _sha(core.block_distances(model, keys, n, s0, scratch))
    out["restricted"] = _sha(*sample_restricted(model, s0, radius, 100, SEED))
    return out


@pytest.mark.parametrize("model_id", model_ids())
def test_outputs_match_recorded_digests(model_id):
    assert _digests(model_id) == PINS[model_id]


# (p, k, seed of the thetas, h, default_grid options) per grid case
_DENSITY_CASES = {
    "p1": (1, 2000, 71, 0.1, {"points": 4001}),
    "p2": (2, 110, 72, 0.9, {"cap": 200_000}),
}

DENSITY_PINS = {
    "p1-naive": "d016847633e0c1660b57651ba96b55d8dff1d746c3dea33ae8def47ef8d422e3",
    "p1-gaussian": "40138aabc6ace52d0298554638c07ddde1b0eaa3a9afafe51ea693ad13e275c4",
    "p2-naive": "555cc16ad114eb4d731b583d56e8b856010c138e23c6894e4b7a4fc6d41a93fb",
    "p2-gaussian": "f7da79e365ea9e404dce975806e85564dfede7fad097596f279c17fc24b9eb99",
}


@pytest.mark.parametrize("case", sorted(DENSITY_PINS))
def test_density_values_match_recorded_digests(case):
    grid, kind = case.split("-")
    p, k, seed, h, options = _DENSITY_CASES[grid]
    acc = core.AcceptedSet(ordered_thetas=np.random.default_rng(seed).normal(0.0, 1.0, (k, p)),
                           ordered_summaries=np.zeros((k, 1)),
                           distances=np.linspace(0.01, 0.4, k), radius_next=0.5,
                           source_indices=np.arange(k, dtype=np.int64))
    est = estimate_density(acc, h, make_kernel(kind, p), axes=default_grid(acc, h, **options))
    assert _sha(est.values) == DENSITY_PINS[case]


PROP1_PINS = {
    "restricted": "66518d8520ef609c361b6e6ffa3322fc4dee8f3618b05fb3a0ad2db17fbc8e4d",
    "unrestricted": "2ff7cfcc9318e9c187900097468167f9ceeb41df7ab5020fea4ebc7bd6f97ca5",
}


@pytest.mark.parametrize("oracle_kind", sorted(PROP1_PINS))
def test_prop1_p_values_match_recorded_digests(oracle_kind):
    result = prop1_calibration(get_model("gaussian_conjugate_1d"), [0.5], 2000, 50, 30, 500,
                               SEED, oracle_kind=oracle_kind, max_workers=2)
    assert _sha(result["p_values"]) == PROP1_PINS[oracle_kind]


# abc sample's files at the smallest table and across three chunk edges
SAMPLE_SIZES = (2, 3 * core._CHUNK_ROWS + 17)

SAMPLE_PINS = {
    "gauss_5d": {
        "bin_2":
            "ae2aa7a961745acb67d49f73fe3724d4ec12233f42359e122f477c192161c36c",
        "csv_2":
            "0987c74b755764197a2c7864f445188f522ae2dbe19f4fbc53e5767cf5d6fc76",
        "bin_98321":
            "273cf49a25355fbdb208a28dc208e21fadd6c78aa3eafe20f275e718c184116d",
        "csv_98321":
            "10e018bac0deebf607937a891682b01f4d109f736c1dba0c9c8edb9094b64211",
    },
    "gaussian_conjugate_1d": {
        "bin_2":
            "6509684292188b76c9a5ea630633e214786d122dff99339967168d60c7a3fc02",
        "csv_2":
            "82fc33ece26d0ce3c1457b3bc3a3ad55ebe5c4499821247db4bbe1370e16dad7",
        "bin_98321":
            "56ff1d0f5bbf1a329713e1f0f7e56dfe2501abd46856842677f618f2e1a3834b",
        "csv_98321":
            "af05ac5a8a42b7cc4a848955ff111247fd53291b609c4afa0407621a9310a142",
    },
    "gaussian_mean_demo": {
        "bin_2":
            "abbdbe160590595bcfbcb5ff14545e4f01178c042ac149f9fa6a153830fee15b",
        "csv_2":
            "5b89f087348e27c950488fbee4efb34ee6b2dd028fcd3e8bd1075ae3db4c933a",
        "bin_98321":
            "a424505b5a226fa362272f56e1709314894f897f75ca246e4f6ae67aacb9a719",
        "csv_98321":
            "15e4c29c4dbba05199f45dad472d0c0e35f0cb072705b18cb999e6bc63287ff3",
    },
    "uniform_ball_1d": {
        "bin_2":
            "66dbf4d50e8bf9ae4b9435417f6e9512a984e7c527dbb37a7eeabe3456908575",
        "csv_2":
            "1a7fbbff83a0814227af83968911dcf6038c967ae9fda070c5016dff414f76ae",
        "bin_98321":
            "bd2f296171db3d8279ba5eb138587a88878837c2c6c4951127278e48e7f6e26d",
        "csv_98321":
            "4f143f237da4ccba04222fa73e9519d341b872ce799560c6645def5e67676e53",
    },
    "uniform_box_1d": {
        "bin_2":
            "1a6d20a3b8abf76cd318edf98065dafb63ed661d89ec41f39b44115cc019f153",
        "csv_2":
            "28f01b21be119634bb45c3394a961dd092d05f11ef2118c55901dc86a3530eb3",
        "bin_98321":
            "2443d278c62e4447e10659a5917ccc4e17364fa1522158833c367ef7afb1aafe",
        "csv_98321":
            "acd26a715cb9c42869e3a582cf69734617622e88fd9146c6c7eeaba258a8f786",
    },
}


def _sample_files(tmp_path, model_id: str, n_rows: int, threads: int) -> dict:
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema": "abc-config/1", "model": {"id": model_id}, "N": n_rows, "seed": SEED,
        "acceptance": {"k": 1}, "s0": _SETTINGS[model_id][0]}), encoding="utf-8")
    out = tmp_path / f"out_{n_rows}"
    argv = ["sample", "--config", str(config), "--out", str(out), "--threads", str(threads)]
    assert cli.main(argv) == 0
    return {name: (out / name).read_bytes() for name in ("table.bin", "table.csv")}


def _table_csv(table) -> bytes:
    """The table as one ``%`` over a repeated ``%.17g`` row template: the
    text ``write_csv`` gave when it held the whole table."""
    columns = [*table.thetas.T, *table.summaries.T]
    header = ([f"theta_{j}" for j in range(table.thetas.shape[1])]
              + [f"s_{j}" for j in range(table.summaries.shape[1])])
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(col.tolist() for col in columns))))
    return (",".join(header) + "\r\n" + row * table.n_rows % cells).encode("ascii")


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("model_id", model_ids())
def test_sample_files_match_recorded_digests_and_in_memory_writers(model_id, threads,
                                                                  tmp_path):
    model = get_model(model_id)
    digests = {}
    for n in SAMPLE_SIZES:
        files = _sample_files(tmp_path, model_id, n, threads)
        table = generate_table(model, n, SEED)
        assert files["table.bin"] == core.table_to_bytes(table)
        assert files["table.csv"] == _table_csv(table)
        digests.update({f"{name[6:]}_{n}": hashlib.sha256(blob).hexdigest()
                        for name, blob in files.items()})
    assert digests == SAMPLE_PINS[model_id]


# the replicate reports of mise_estimate (per-replicate ISE and mean
# bandwidth, "auto" and fixed) and moment_consistency (every row), at 1 and
# 2 workers
REPLICATE_PINS = {
    "mise_auto": "68b3a6acde7fb2ec4f920241b913f51730194e4e34c260b11b089979d900dd83",
    "mise_fixed": "4b9a30fee2a7c4301c25fa166544b928d062bce877ce6858b185c9f805532fc6",
    "moments": "98820e97f8a365728c71d773d839ca395c3b11836e580f8905937f224eb907e7",
}


def _replicate_digest(kind: str, workers: int) -> str:
    model = get_model("gaussian_conjugate_1d")
    if kind.startswith("mise"):
        h = "auto" if kind == "mise_auto" else 0.3
        report = mise_estimate(model, [0.5], 2000, 50, h, make_kernel("gaussian", 1), 6,
                               SEED, max_workers=workers)
        return _sha(report.per_replicate, np.float64(report.h_mean))
    rows = moment_consistency(model, [0.5], 2000, 50, ["identity", "square", "one"], 6,
                              SEED, max_workers=workers)
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("ascii")).hexdigest()


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("kind", sorted(REPLICATE_PINS))
def test_replicate_reports_match_recorded_digests(kind, workers):
    assert _replicate_digest(kind, workers) == REPLICATE_PINS[kind]


# epsilon-mode abc estimate at three chunks plus 17 rows: an epsilon per
# model that accepts a few dozen rows, and the demo's s0 from its raw data
EPSILONS = {"gauss_5d": 0.45, "gaussian_conjugate_1d": 0.001, "gaussian_mean_demo": 0.0007,
            "uniform_ball_1d": 0.0003, "uniform_box_1d": 0.0003}
DEMO_Y0 = [0.3] * 10

ESTIMATE_PINS = {
    "gauss_5d": {
        "density.csv":
            "c11a369e664799e8de69395ca2f0790f59edb141f5e680b0bf5371b137a46705",
        "density_meta.json":
            "7d20352bdde32f4b4a07a741ffe80c744da116bf79a9d857c691c4992a8d2622",
        "k": 47,
        "d_k_plus_1": 0.45155476294016494,
    },
    "gaussian_conjugate_1d": {
        "density.csv":
            "36e93875dae9d9408440a0ad0c004fdf0fecad8911867cb622f450912bd9ba2b",
        "density_meta.json":
            "ba217079bb7869df23d57d055e0781b7eb815ab1e326a3ddec39b6ba46b86f07",
        "k": 49,
        "d_k_plus_1": 0.0010265955576342911,
    },
    "gaussian_mean_demo": {
        "density.csv":
            "16628a221f2f5088274ec955a7877539f6f28f7db1c5317e9b142860af9d0cdf",
        "density_meta.json":
            "323ea47496700fa93e40d45cd372c87833347007e4f7be96189869fe6e2872cb",
        "k": 49,
        "d_k_plus_1": 0.0007286075870907016,
    },
    "uniform_ball_1d": {
        "density.csv":
            "6933df694818ff1caaf1f1b8bb71ebdbe5cf922bee30e2e5520892e6882c7dd4",
        "density_meta.json":
            "4294e36492bac49fc7575b532dc7f0ed412be3270a9fa7a6a1613351f0259d40",
        "k": 60,
        "d_k_plus_1": 0.00030126036574051884,
    },
    "uniform_box_1d": {
        "density.csv":
            "4716bde978206a6dc46a75d773ea0c48437ebad97121fe4c433ede2789ff0144",
        "density_meta.json":
            "f04519684ee0b4d5d35ecaaf97795b42ecd74eff45578c046e5ab6b27a0f526e",
        "k": 56,
        "d_k_plus_1": 0.0003032814908651149,
    },
}


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("model_id", model_ids())
def test_epsilon_estimate_files_match_recorded_digests(model_id, threads, tmp_path, capsys):
    raw = {"schema": "abc-config/1", "model": {"id": model_id},
           "N": 3 * core._CHUNK_ROWS + 17, "seed": SEED,
           "acceptance": {"epsilon": EPSILONS[model_id]}}
    if model_id == "gaussian_mean_demo":
        raw["y0"] = DEMO_Y0
    else:
        raw["s0"] = _SETTINGS[model_id][0]
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["estimate", "--config", str(config), "--out", str(out), "--threads", str(threads)]
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ("density.csv", "density_meta.json")}
    got.update(k=summary["k"], d_k_plus_1=summary["d_k_plus_1"])
    assert got == ESTIMATE_PINS[model_id]
