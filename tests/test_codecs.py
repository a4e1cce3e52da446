"""Strict wire decoders: each one inverts its encoder exactly, and any other
input raises SlapxError (never a bare ValueError or UnicodeDecodeError)."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slapx import dac, rlrs, vdf, wire
from slapx.errors import SlapxError
from slapx.protocol import LocationProof, Puzzle
from slapx.rng import SeededRng
from slapx.spectrumdb import SpectrumDatabase, SpectrumRecord

ATTRS = (dac.Attribute("device_id", b"DEV-0042"),
         dac.Attribute("tx_power", (300).to_bytes(2, "big")),
         dac.Attribute("device_type", b"\x01"),
         dac.Attribute("validity", bytes(16)))


@pytest.fixture(scope="module")
def codecs(dac_env, rlrs_env):
    """name -> (an honest value, decode(bytes), encode(value))."""
    params, root, rng = dac_env
    pk, sk = dac.dac_keygen(params, rng)
    cred = dac.issue_credential(root, sk, ATTRS, rng)
    pk_r, sk_r = dac.dac_keygen(params, rng)
    recipient = dac.issue_credential(root, sk_r, ATTRS, rng)
    req, r_d = dac.dac_request_delegation(params, sk_r, rng)
    a_l = (dac.Attribute.location(12.0, -3.5), dac.Attribute.ts_window(42))
    ext = dac.dac_issue_cred(params, cred, req, a_l, rng)
    dcred = dac.dac_receive_cred(params, recipient, r_d, ext)
    nym, aux = dac.dac_nymgen(params, pk, rng)
    base = dac.dac_cred_prove(params, sk, nym, aux, cred, (1, 2), b"c", rng)
    nym_r, aux_r = dac.dac_nymgen(params, pk_r, rng)
    delegated = dac.dac_cred_prove(params, sk_r, nym_r, aux_r, dcred, (1, 2),
                                   b"c", rng)
    vparams = vdf.rsa_setup(256, SeededRng(41))
    nb = (vparams.bit_length() + 7) // 8
    sol = vdf.vdf_eval(vparams, vdf.VdfChallenge(b"m", 50))
    _, rparams, ring, keys, _ = rlrs_env
    event = rlrs.EventId(12.0, -3.5, 42, bytes(range(32)))
    ring_sig = rlrs.rlrs_sign(keys[ring[0]], b"m", ring, event, rparams,
                              SeededRng(43))
    puzzle = Puzzle(puzzle_id=(7).to_bytes(8, "big"), modulus_n=vparams,
                    tau=1000, seed=bytes(range(32)), issued_s=121.5,
                    expires_s=181.5)
    proof = LocationProof(m=b"m", sig=ring_sig, event=event)
    issuance_req, _ = dac.dac_request_cred(params, sk, SeededRng(44))

    def presentation(value):
        return (value, lambda b: dac.Presentation.from_bytes(b, params),
                lambda p: p.to_bytes(params))

    def opening_proof(value):
        return (value, lambda b: dac.OpeningProof.from_bytes(b, params),
                lambda r: r.to_bytes(params))

    return {
        "presentation": presentation(base),
        "delegated_presentation": presentation(delegated),
        "delegation_request": opening_proof(req),
        "issuance_request": opening_proof(issuance_req),
        "vdf_solution": (sol, lambda b: vdf.VdfSolution.from_bytes(b, nb),
                         lambda s: s.to_bytes(nb)),
        "ring_signature": (ring_sig, rlrs.decode_signature,
                           rlrs.encode_signature),
        "puzzle": (puzzle, Puzzle.decode, Puzzle.encode),
        "spectrum_record": (SpectrumDatabase().lookup(10.0, 20.0),
                            SpectrumRecord.decode, SpectrumRecord.encode),
        "location_proof": (proof, LocationProof.decode,
                           lambda p: p.encode(rparams)),
    }


NAMES = ["presentation", "delegated_presentation", "delegation_request",
         "issuance_request", "vdf_solution", "ring_signature", "puzzle", "spectrum_record",
         "location_proof"]


@pytest.mark.parametrize("name", NAMES)
def test_honest_value_round_trips(codecs, name):
    value, decode, encode = codecs[name]
    assert decode(encode(value)) == value


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_decoded_value_reencodes_to_input(codecs, name, data):
    """Edit one spot of an honest encoding: the decoder either raises
    SlapxError or returns a value whose encoding is the edited bytes."""
    value, decode, encode = codecs[name]
    valid = encode(value)
    edit = data.draw(st.sampled_from(["flip", "cut", "insert"]))
    if edit == "flip":
        pos = data.draw(st.integers(0, len(valid) - 1))
        flipped = valid[pos] ^ (1 << data.draw(st.integers(0, 7)))
        edited = valid[:pos] + bytes([flipped]) + valid[pos + 1:]
    elif edit == "cut":
        edited = valid[:data.draw(st.integers(0, len(valid) - 1))]
    else:
        pos = data.draw(st.integers(0, len(valid)))
        edited = valid[:pos] + data.draw(st.binary(min_size=1, max_size=8)) + valid[pos:]
    try:
        decoded = decode(edited)
    except SlapxError:
        return
    assert encode(decoded) == edited


class TestNonCanonicalInputRejected:
    def test_trailing_byte(self, codecs):
        for name in NAMES:
            value, decode, encode = codecs[name]
            with pytest.raises(SlapxError):
                decode(encode(value) + b"\x00")

    def test_extension_flag_other_than_0_or_1(self, codecs):
        value, decode, encode = codecs["presentation"]
        encoded = encode(value)
        assert value.ext is None and encoded[-1] == 0
        with pytest.raises(SlapxError, match="extension flag"):
            decode(encoded[:-1] + b"\x02")

    @pytest.mark.parametrize("level", [0, 2, 255])
    def test_presentation_level_other_than_1(self, codecs, level):
        value, decode, encode = codecs["presentation"]
        encoded = encode(value)
        assert encoded[:2] == b"\x01\x01"     # version, level
        with pytest.raises(SlapxError, match="version or level"):
            decode(encoded[:1] + bytes([level]) + encoded[2:])

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_extension_level_other_than_2(self, codecs, level):
        value, decode, encode = codecs["delegated_presentation"]
        encoded = encode(value)
        # the base part ends where the extension flag and level begin
        at = len(encode(dataclasses.replace(value, ext=None))) - 1
        assert encoded[at:at + 2] == b"\x01\x02"
        with pytest.raises(SlapxError, match="extension level"):
            decode(encoded[:at + 1] + bytes([level]) + encoded[at + 2:])

    def test_attribute_kind_not_utf8(self, codecs):
        value, decode, encode = codecs["presentation"]
        encoded = encode(value)
        kind = value.disclosed[0][1].kind.encode()
        bad = encoded.replace(kind, b"\xff" + kind[1:], 1)
        with pytest.raises(SlapxError, match="UTF-8"):
            decode(bad)

    def test_solution_field_widths(self, codecs):
        sol, decode, encode = codecs["vdf_solution"]
        ell_b, pi_b, y_b = wire.unpack_fields(encode(sol), 3)
        for fields in ((b"\x00" + ell_b, pi_b, y_b),    # ell with a leading zero
                       (ell_b, pi_b[1:], y_b),           # pi short of the width
                       (ell_b, pi_b, b"\x00" + y_b)):   # y beyond the width
            with pytest.raises(SlapxError):
                decode(wire.pack_fields(*fields))

    def test_puzzle_field_widths(self, codecs):
        puzzle, decode, encode = codecs["puzzle"]
        tag, body = encode(puzzle)[:1], encode(puzzle)[1:]
        pid, n_b, tau_b, seed, iss, exp = wire.unpack_fields(body, 6)
        for fields in ((pid, b"\x00" + n_b, tau_b, seed, iss, exp),
                       (pid, n_b, tau_b[1:], seed, iss, exp),
                       (pid, n_b, tau_b, seed, iss[1:], exp),
                       (pid, n_b, tau_b, seed, iss, b"\x00" + exp)):
            with pytest.raises(SlapxError):
                decode(tag + wire.pack_fields(*fields))

    def test_spectrum_record_padding(self, codecs):
        record, decode, encode = codecs["spectrum_record"]
        encoded = encode(record)
        assert encoded[-1] == 0
        with pytest.raises(SlapxError, match="padding"):
            decode(encoded[:-1] + b"\x01")

    def test_puzzle_time_beyond_float_precision(self, codecs):
        puzzle, decode, encode = codecs["puzzle"]
        body = encode(puzzle)
        far = (2 ** 63 - 1).to_bytes(8, "big")
        with pytest.raises(SlapxError, match="precision"):
            decode(body[:-8] + far)


@pytest.mark.parametrize("ms", [0, 1, 999, 1001, 1003, 121_500, 1_001_501,
                                1_760_000_000_123])
def test_puzzle_time_round_trips_every_millisecond_count(codecs, ms):
    # ms / 1000 * 1000 falls just below ms for some counts (1001 among them);
    # the decoder must still return a time that encodes to the same count
    puzzle, decode, encode = codecs["puzzle"]
    data = encode(puzzle)[:-8] + ms.to_bytes(8, "big")
    assert encode(decode(data)) == data
