"""Every absolute bit pin of the suite, the one rule that hashes them, and the
platform they were made on.

The pins fall in two groups.  The first held on every BLAS kernel tried
(``OPENBLAS_CORETYPE`` set to SkylakeX, Haswell or Prescott): simulated counts
are integers, which the last bits of their probabilities did not move, and the
u tables are exact dyadic rationals.  The second holds the outputs of
maximum-likelihood fits, whose every iteration carries BLAS rounding forward;
those bits hold only on the numpy build and BLAS kernel named in
``PINNED_ON``.  Tests import their pins from here and keep their own
assertions and bounds.
"""

import hashlib

import numpy as np

#: The numpy version and the OpenBLAS configuration string
#: (``scipy_openblas_get_config64_`` of numpy's bundled library, which names
#: the runtime kernel) that the maximum-likelihood pins were made on.
PINNED_ON = {
    "numpy": "2.4.6",
    "openblas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
}


def digest(*parts) -> str:
    """sha256 over ``parts`` in turn, each as ``np.asarray(part)`` in the
    little-endian form of its own dtype (the bytes themselves for ``bytes``)."""
    sha = hashlib.sha256()
    for part in map(np.asarray, parts):
        sha.update(part.astype(part.dtype.newbyteorder("<")).tobytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# Same bits on every kernel tried: simulated datasets, u tables, count CSVs.
# ---------------------------------------------------------------------------

#: (visibility or "cz" for an explicit ideal-CZ Choi matrix, pair_rate, drift,
#: noise_admixture, seed).  The first nine are the benchmark's reference
#: datasets (pipeline seeds 1000-1007, bootstrap seed 42).
GOLDEN_CONFIGS = (
    (0.0, 1e2, ("constant",), 0.0, 1000),
    (0.25, 1e3, ("linear", 0.1), 0.0, 1001),
    (0.5, 1e4, ("sinusoidal", 0.1, 666), 0.0, 1002),
    (0.75, 1e5, ("random-walk", 0.0, 0.0, 0.002), 0.0, 1003),
    (1.0, 1e6, ("constant",), 0.0, 1004),
    (0.953, 1e4, ("sinusoidal", 0.1, 666), 0.0, 1005),
    (0.333, 1e6, ("linear", 0.05), 0.0, 1006),
    (0.9, 1e2, ("random-walk", 0.0, 0.0, 0.002), 0.0, 1007),
    (0.953, 1e4, ("sinusoidal", 0.1, 666), 0.0, 42),
    (0.0, 1e4, ("constant",), 0.02, 7),
    (0.953, 1e4, ("random-walk", 0.0, 0.0, 0.003), 0.02, 8),
    (1.0, 1e4, ("linear", 0.05), 0.0, 9),
    (1.0, 1e3, ("sinusoidal", 0.1, 500), 0.02, 10),
    ("cz", 1e4, ("constant",), 0.0, 11),
    ("cz", 1e4, ("random-walk", 0.0, 0.0, 0.003), 0.02, 12),
)

#: ``digest(counts, references)`` of each simulated dataset above (int64).
GOLDEN_DIGESTS = (
    "40c345b6aacbd669937fd2c20cb0dda4b51b8b084086385f1beb8aa4dabeb56a",
    "7714cc82771cb7ba3fb1a47c7e0cf00726af025e53175aaa935295ab692208a7",
    "348db52639821af3a0fcda852bac6244c0e77307df46a25204615ba46bb69ba8",
    "3febaeedfad8ae28136874a06d2cb9aeca887f191bcbb5b2e0a3742e9efadaaa",
    "6eda8e700204f9415410fcfe26c9e0138df1a1f351d739b5a932baa9b78e6367",
    "e5f3b2ea08b5b598b49a293832e3a8e585aab55a3a37ebb6d25ba6e31a083e7a",
    "d8a923f09b7905c79a688b96146a96941af53b8bec766d55b94b76b04b6eb1c1",
    "d30e70bcb5af78e2367b2375a80be82471d7c42b3bf5ec34f3f3ad0826881f44",
    "aebad84f8d264e42a6f4ca5f99a867bdc42f3b9f8f0f8e03fc9e1183382e736f",
    "41cc49b40567112a9e1460285316ec94212e33c758ebe00db0bd89a009239691",
    "748eeb2a1407033fbaf8ecbaaab674f6b417c613e63d186aff9c6d75721e1851",
    "75d65ae91fa8b0a6082417a7caf16044993c0668dcd403c0a4161d7de9b2eddc",
    "9c03a856a0bd6601439f8f0884e31988c69f1b9d792be4c1f7256f3617b417ed",
    "b67c454c7280339b97d51892aee1e3b71ac4ac6a2f76ea9bde34962396c1474b",
    "20acf6dcea92f3103a31d36ecc50375b916fc2564faa232b250e26e0e3cee4d9",
)

#: ``digest(u)`` of each u table (float64).  The entries are exact dyadic
#: rationals, so every contraction order gives the same bits.
U_DIGESTS = {
    "hv": "33db1bfee44f89524e3685a6da827cf498f4a9dcb6de9c60d8c787d57994ee67",
    "da": "fe52aa143e1ac732146adfba94d37d9bf83233617d12c6f9b86cf81bb9509de4",
    "rl": "2e271637383980cf467d04096ffe2a065eccacbf4af594f11d73e6daddd19152",
}

#: sha256 of the files the three writers produce for the ``dataset`` fixture
#: and its default ML fit; the bytes of every CSV format are pinned.  The ML
#: fit's ``choi.csv`` joins below.
WRITTEN_DIGESTS = {
    "counts.csv": "b0943fd09fc2bbbd2f78228eaf7545a64234de0ab4d3a08aee3dd3f5c519bb93",
    "references.csv": "d4c047da77a176244af9d2e6579a869ce80b33879b1142ff43c98366e2447b6d",
}


# ---------------------------------------------------------------------------
# Maximum-likelihood bits: these hold only on the platform of PINNED_ON.
# ---------------------------------------------------------------------------

WRITTEN_DIGESTS["choi.csv"] = "d0c54731724d15c26361c4ceaa701e9be69d05d9833e51b1ad1d0ae76286e578"

#: A 5-point noisy sweep and the rows it gives.
NOISY_SWEEP_SPEC = {
    "grid": {"start": 0.0, "stop": 1.0, "points": 5}, "analytic_only": False,
    "config": {"pair_rate": 1e4, "noise_admixture": 0.02}, "seed": 0,
}
NOISY_SWEEP_ROWS = np.array([
    [0.0, 0.24515851080851886, -0.021628779363830564, 0.3017892201938426],
    [0.25, 0.4302064293563309, 0.2460479125723849, 0.4336539080113313],
    [0.5, 0.6119645951833232, 0.4729547983509841, 0.5672469645061164],
    [0.75, 0.7970984604693979, 0.7204364923052322, 0.7476186896483037],
    [1.0, 0.9811594656317498, 0.9712357844893762, 0.9712245382604352],
])

#: ``digest(chi, iterations, final_residual)`` of each fit (complex128,
#: int64, float64) for the five tables of the noisy sweep above, then the
#: ``dataset_dir`` table.
GOLDEN_FIT_DIGESTS = (
    "c592399461782861b823861003532ea4ac7805c1a7555a4ba0b215ee63850a7c",
    "00b5bec907220a527fc1b1b8b6db63eb96f9cd3b7dc6e586392583b46037f459",
    "64be8a007e10a73481aa7fd22c7d624d444b8983f61172029f00d6eda1c008f2",
    "5a1a957bedd98efeb93d68b4a1bc0274456724144dcbf46dea78048b9efa687e",
    "f17e03232b1b3fa34719dd350f80ccfdb45f38ea6b2563028a9ee2bce2a817f9",
    "06d673464118551971d2064a92ce4d4ddc2dc790109225e12e8b1dc6fa8bc7ad",
)

#: Bootstrap sigma of the seed-42 V=0.953 dataset's default fit, with
#: ``n_runs=100, seed=0``: the value fitting each resample alone gives.
GOLDEN_SIGMA = 0.0006599322107934344

#: ``log_likelihood`` and fidelity to CZ of ``maxlik_reconstruct`` of the
#: noisy 1e6-pair V=0 table (sim seed 7) with ``MaxLikSettings(stop_threshold=1e-9)``,
#: which converges after 24,429 iterations; the bootstrap sigma is
#: ``bootstrap_fidelity_uncertainty`` of the default fit's chi and the
#: table's total, with ``n_runs=100, seed=0``.
NOISY_LOGLIK_REF = -244857896.17605704
NOISY_F_REF = 0.24612719318390766
NOISY_SIGMA = 1.695e-4
