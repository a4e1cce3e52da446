import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slapx import dac, rlrs, wire  # noqa: E402
from slapx.protocol import PROX_THRESHOLD_M, Deployment, DeviceProfile  # noqa: E402
from slapx.rng import SeededRng  # noqa: E402


@pytest.fixture(scope="session")
def deployment():
    # small puzzle modulus keeps module tests quick; acceptance uses full size
    return Deployment.create(seed=3, psd_modulus_bits=512)


@pytest.fixture(scope="session")
def hijack_oracle():
    """Closed-form noiseless relay success, the oracle of the hijack sweep:
    w*d_path + (1-w)*honest_d <= threshold, with the sweep's 1e-6 m guard
    at exact-threshold grid points."""
    def success(honest_d: float, mal_d: float, weight: float) -> int:
        return int(weight * mal_d + (1.0 - weight) * honest_d
                   <= PROX_THRESHOLD_M + 1e-6)
    return success


@pytest.fixture(scope="session")
def client(deployment):
    return deployment.new_client(DeviceProfile(b"DEV-0001", 30.0, 0), seed=1001)


@pytest.fixture(scope="session")
def run_bytes():
    """The nine byte strings of one AP-path run, read from its three traces,
    that a second run by the same device must not repeat."""
    def fields(message, count):
        return wire.unpack_fields(wire.message_content(message), count)

    def read(params, pol, query, service):
        pol_pres = fields(pol.request, 4)[3]
        _, _, _, query_pres, phi = fields(query.request, 5)
        _, _, solution, service_pres, _ = fields(service.request, 5)
        return {
            "pol_ap.nym": dac.Presentation.from_bytes(pol_pres, params).nym,
            "pol_ap.presentation": pol_pres,
            "pol_ap.pol_sig": fields(pol.response, 3)[1],
            "spectrum_query.presentation": query_pres,
            "spectrum_query.phi": phi,
            "spectrum_query.puzzle": fields(query.response, 3)[1],
            "service_request.presentation": service_pres,
            "service_request.solution": solution,
            "service_request.token": fields(service.response, 2)[1]}
    return read


@pytest.fixture(scope="session")
def dac_env():
    rng = SeededRng(11)
    params, root = dac.dac_setup(rng)
    return params, root, rng


@pytest.fixture(scope="session")
def rlrs_env():
    rng = SeededRng(12)
    msk, params = rlrs.rlrs_setup(rng)
    ring = [f"AP-{i}" for i in range(5)]
    keys = {i: rlrs.rlrs_extract(msk, i, params) for i in ring}
    return msk, params, ring, keys, rng
