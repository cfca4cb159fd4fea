"""Bit-level values that the tests assert, each in one place, and the bit-equality
test they are compared with.

They hold where OpenBLAS picks its SkylakeX kernel (``PINNED_CORE``); another
kernel sums the weighted stages in another order and moves them.
"""

import ctypes

import numpy as np

#: the OpenBLAS core under which every value here was taken
PINNED_CORE = "SkylakeX"

#: accepted steps of ``paper_exponential`` at ``delta=1e-12``, otherwise the
#: default ``ControllerConfig``
LONG_RUN_STEPS = 10438

#: the flagship run's summary (``paper_exponential``, ``rk3_rk4``,
#: ``delta=1e-8``), by policy
FLAGSHIP = {
    "proportional": dict(accepted=1042, rejected=0, crossing_index=155,
                         crossing_x=30.371983519643603,
                         final_delta_lower=-8.279915846287622e-07,
                         condition_violation_index=None),
    "reject-only": dict(accepted=938, rejected=7, crossing_index=44,
                        crossing_x=11.278686635103092,
                        final_delta_lower=-1.227496113642701e-06),
}

#: ``FLAGSHIP`` and ``LONG_RUN_STEPS`` as OpenBLAS's Haswell kernel gives them, a
#: record of what another kernel moves: the proportional ``final_delta_lower``
#: and the long run's step count; the crossings and the rest hold
HASWELL_FLAGSHIP = {
    "proportional": dict(FLAGSHIP["proportional"], final_delta_lower=-8.279946541733807e-07),
    "reject-only": dict(FLAGSHIP["reject-only"], final_delta_lower=-1.227496113642701e-06),
}
HASWELL_LONG_RUN_STEPS = 10435

# SHA-256 of the write_trace_csv and write_summary_json bytes at delta=1e-8, by
# (problem, policy, with exact solution); a change that moves any bit of a
# trace or a summary moves its digest
OUTPUT_SHA256 = {
    ("paper_exponential", "proportional", True): (
        "cc7107a2a7c447fbe4e6c91c01f3edabe6281e540bcce9bc7fb9f2cf90578283",
        "aeca180154f531b2fe596f5a9109f1df9f40153bca7907bb6402a21e13a45c4e"),
    ("paper_exponential", "proportional", False): (
        "9ecd8cc7efbd07a030954f1dea42c48b85aba72a72a31650e07b1c4ed83c5f68",
        "aa8fbd768b973bdcce434a63cc833eea3a806cefe01523913879382ba0842572"),
    ("paper_exponential", "reject-only", True): (
        "ff915aa8352aa1be64d1644f1bac07409ad677529fd37ac65df790aac11ed45f",
        "ad2d76dc27522a253971cb0ad3162f19502397f0564429de198fae4065c1ae45"),
    ("paper_exponential", "reject-only", False): (
        "b1718e6c6be4877d28b00db4492b7fad79e0dd541a2db8de0d4906203149856e",
        "beecba612bcd9e78b7d4a80e5f2d1eb081d002ce89e5ba815f8336c73439fe40"),
    ("decay", "proportional", True): (
        "88282a9b39568cc67e17aa695912960f002bf3dae4ca76405a0530309b40615c",
        "b77d97dc5bece019db85fc3da326d7a3a1edc88c9c1bb8263ae6cec1578f87f4"),
    ("decay", "proportional", False): (
        "3ea9aa3a97237c2533ba2a4ed5505b3714ef34c189574a877090bf8880c019cf",
        "aaf270497dae0040510de906b770bf96e0ddabac020d7b63556d46dfc9524ee4"),
    ("decay", "reject-only", True): (
        "086625b3162f1031d569c3edff4d8d51031045ce3da5f001cf5f37a20f418b4a",
        "183742f130c1d50d577e0f50fd2ff742bd0ebac750f981ad754aeb76e9643828"),
    ("decay", "reject-only", False): (
        "2557babb64423e68fab7b2fe892c25a766526d63f0a9035eaad80336ac68bdbd",
        "ff182c41f3824dd14212965fd068d55b142edee0d717d189a3e2302c98923ddc"),
    ("riccati_simple", "proportional", True): (
        "dc35f7f56a14ee204fdc141c3977de37b56ad93c38d61a0ad75c1a854d2ad934",
        "69a6749b3455e5cc128b9763dc50ca669a2c59920523b242b588a52439152306"),
    ("riccati_simple", "proportional", False): (
        "d1fcb63dd119606a5e31960eeb08fbf7b8f3f28fea0b81ce682bb9492b7420d4",
        "60b362f5af9e5153197eaa3428b54dac161bbb6d3544b52809e1a76ffdb9f225"),
    ("riccati_simple", "reject-only", True): (
        "bc1e207e88b3b6d7ba9563240313c8f8b430788855d454e8db76460a5570817a",
        "9e52f11485b91be84071b90f8b4d296658d887c508463620bbd0f52f5bfde18f"),
    ("riccati_simple", "reject-only", False): (
        "c24a4eb7cd61344f5e2f20a6033f643c23ffab65ad514e20e96b85be8ca32829",
        "9f2f8a489c78906b07a4fe8041013a2ed078b8e3e89f2d547bd2a7a07e301ad3"),
}

# SHA-256 of the figure1_export bytes at delta=1e-8, by (problem, policy)
FIGURE_SHA256 = {
    ("paper_exponential", "proportional"):
        "96c9c09931470a2b925c852a648b5f8791cd011b93b71f4af9f4f12b800ab2bf",
    ("paper_exponential", "reject-only"):
        "0f0283a3dc9259d44c4b160940ffe16a2d80ef00eb1e54a6f19c5c453820c676",
    ("decay", "proportional"):
        "4daafe5eafd8671dbd5587fc7489378d005835db791bae891d8257a607d0b3c3",
    ("decay", "reject-only"):
        "2951684d23570ae73d2044eda0d5882bf3fa99d1a881f5f9053e466f42249208",
    ("riccati_simple", "proportional"):
        "125b90e35b8d8b6f00f59bdee868b8dbaf6c303d30c1f4029b0c77528e22c9fb",
    ("riccati_simple", "reject-only"):
        "ec175ddd33e38c41f723f29f72940fcc4c9025bf7c04deb4be7fcb1c41c0eee6",
}

# SHA-256 of the trace and figure bytes of paper_exponential at delta=1e-12 on
# the full interval: LONG_RUN_STEPS rows, so the writers cross many block boundaries
LONG_RUN_SHA256 = (
    "c27e33b10a82a36398b7e9a06dd5f63713fd717f2020aa4d5173af076a39bf96",
    "ffe7855b72db24ef75342a08302f5af83e4b61da084ca39869177209c0e71dfa",
)


def same_bits(a, b) -> bool:
    """Whether ``a`` and ``b`` are the same value bit for bit: arrays of one shape
    and the same bytes, floats of the same hex, ``None`` and bools by identity,
    anything else of one type and equal."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    if a is None or isinstance(a, bool):
        return a is b
    return type(a) is type(b) and a == b


def blas_core() -> str:
    """The name of the OpenBLAS core that numpy's BLAS runs on in this process,
    as numpy's bundled OpenBLAS reports it, or ``"unknown"`` where numpy's
    extension module reaches no ``scipy_openblas_get_corename64_``."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy before 2.0, which bundled no scipy_openblas
        return "unknown"
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()
