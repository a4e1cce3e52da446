"""Attribute credentials with selective disclosure, re-randomizable
presentations, and one-level delegation.

Instantiation. The root issuer holds an RSA modulus n and one public
exponent e, a 192-bit prime coprime to lambda(n). A credential on at most
MAX_ATTRS attributes bound to user secret u is the e-th root

    sigma = (R_sk^u * S^o * prod_i R_i^{m_i})^(1/e)  mod n,

a multi-base commitment to u, an opening o, and the attribute digests m_i.
A presentation re-randomizes sigma by a fresh factor t (sigma' = sigma*t,
with t^e folded into the proven relation), so every transcript is
statistically fresh, and proves knowledge of the hidden exponents by a
Fiat-Shamir AND-composition that also binds the shown pseudonym, the
disclosed subset, a caller context string, and an arbitrary payload.
Forging a presentation without a credential reduces to extracting e-th
roots mod n.

Both requests, for issuance and for delegation, are one `OpeningProof`.
Delegation (terminal, one level): every root credential carries a
delegation key, whose verification key the root certifies at issuance; the
delegator signs an `Extension` binding the recipient's one-time pseudonym
nym_d and the added attribute set, which the recipient's
`DelegatedCredential` and each presentation's `ExtShow` hold whole. Compound
presentations prove the base credential and the extension under one
challenge with a shared response for u, so both certify the same holder.
Presentations of one delegated credential share the nym_d/extension bytes;
a fresh delegated credential is issued per time window, which scopes that
linkability to the window. No object holds a level: it is 1 for a root
credential and a presentation, DELEGATION_DEPTH = 2 for a delegated one and
its extension; encoders write these bytes, and the decoder refuses others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import wire
from .errors import CryptoError, ParameterError, SlapxError
from .group import (CURVE, ELEMENT_BYTES, SCALAR_BYTES, GroupElement,
                    SigningKey, sgn_verify)
from .hashes import H_int, H_tagged
from .modmath import (FixedBase, fixed_base_multiexp, random_prime,
                      random_prime_pair)
from .rng import SeededRng

CRED_WIRE_BYTES = 224
DEFAULT_MODULUS_BITS = 1024  # keeps the credential inside the fixed wire block

_ATTR_BITS = 128     # attribute digest width
_SECRET_BITS = 128   # user secrets and openings
_CHAL_BITS = 128
_SLACK_BITS = 80     # statistical hiding margin on integer responses
Z_BYTES = (_SECRET_BITS + _CHAL_BITS + _SLACK_BITS + 7) // 8 + 6  # 48
# fixed-base tables cover every exponent a response field can carry
_TABLE_BITS = 8 * Z_BYTES

# DacParams.multiexp keys of R_sk and S; a key i >= 0 is attribute base R_i
BASE_SK, BASE_S = -2, -1

DELEGATION_DEPTH = 2  # the level of a delegated credential; root ones are 1
MAX_ATTRS = 4         # attribute slots R_0..R_3: a DeviceProfile's four


# -- attributes ---------------------------------------------------------

_FIXED_WIDTH = {"location": 16, "ts_window": 8, "timestamp": 8, "device_id": 8,
                "tx_power": 2, "device_type": 1, "validity": 16, "pol": 32}


@dataclass(frozen=True)
class Attribute:
    kind: str
    value: bytes

    def __post_init__(self):
        width = _FIXED_WIDTH.get(self.kind)
        if width is not None and len(self.value) != width:
            raise ParameterError(f"{self.kind} attribute must be {width} bytes")

    def digest(self) -> int:
        return H_int("dac/attr", self.kind.encode(), self.value) >> (256 - _ATTR_BITS)

    def encode(self) -> bytes:
        k = self.kind.encode()
        return bytes([len(k)]) + k + len(self.value).to_bytes(2, "big") + self.value

    @classmethod
    def read(cls, r: wire.Reader) -> "Attribute":
        """Decode one `encode`d attribute from `r`."""
        try:
            kind = r.take(r.uint(1)).decode()
        except UnicodeDecodeError as e:
            raise SlapxError("attribute kind is not UTF-8") from e
        return cls(kind, r.take(r.uint(2)))

    @staticmethod
    def location(l_x: float, l_y: float) -> "Attribute":
        return Attribute("location", wire.encode_point(l_x, l_y))

    @staticmethod
    def ts_window(idx: int) -> "Attribute":
        return Attribute("ts_window", idx.to_bytes(8, "big"))


def attrs_digest(attrs: tuple[Attribute, ...]) -> bytes:
    return H_tagged("dac/attrs", *[a.encode() for a in attrs])[:16]


# -- public parameters and keys ------------------------------------------

class DacParams:
    def __init__(self, n: int, e: int, cert_pk: GroupElement):
        self.n = n
        self.e = e
        self.cert_pk = cert_pk
        self.cert_table = CURVE.table(cert_pk)    # for every certificate check
        self.base_S = self._derive_base("S", 0)
        self.base_sk = self._derive_base("R_sk", 0)
        self.bases = tuple(self._derive_base("R", i) for i in range(MAX_ATTRS))
        # indexed by multiexp key: R_0 .. R_3, then R_sk (-2) and S (-1);
        # ~16 KB each at 1024 bits
        self._tables = tuple(FixedBase(g, n, _TABLE_BITS) for g in
                             self.bases + (self.base_sk, self.base_S))

    def _derive_base(self, tag: str, i: int) -> int:
        x = H_int("dac/base", tag.encode(), i.to_bytes(2, "big"),
                  self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")) % self.n
        return pow(x, 2, self.n)  # square => quadratic residue

    def multiexp(self, *terms: tuple[int, int]) -> int:
        """prod base^e mod n over (key, e) terms, key BASE_SK for R_sk,
        BASE_S for S and i for R_i, over the bases' fixed-base tables."""
        return fixed_base_multiexp(
            [(self._tables[key], e) for key, e in terms], self.n)

    def fingerprint(self) -> bytes:
        return H_tagged("dac/pp", self.n.to_bytes(256, "big").lstrip(b"\x00"),
                        self.e.to_bytes(24, "big"), self.cert_pk.to_bytes())

    @property
    def n_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass
class RootIssuerKey:
    params: DacParams
    root: int                       # d with d*e = 1 mod lambda(n)
    cert_key: SigningKey


@dataclass(frozen=True)
class DelegationKey:
    key: SigningKey                 # its pk is the delegation verification key
    cert: bytes                     # root certificate over that key


@dataclass
class Credential:
    sigma: int
    opening: int
    attrs: tuple[Attribute, ...]
    dk: DelegationKey


@dataclass(frozen=True)
class Extension:
    """A root-certified delegation key and its signature on (nym_d, attrs)."""
    nym_d: int                      # one-time recipient pseudonym
    vk_bytes: bytes
    cert: bytes
    ext_sig: bytes
    attrs: tuple[Attribute, ...]    # extension attribute set A_l


@dataclass
class DelegatedCredential:
    """Terminal: it holds no delegation key, so it cannot delegate."""
    ext: Extension
    r_d: int                        # nym_d's opening randomness (holder-side)
    base: Credential                # recipient's own root credential


def dac_setup(rng: SeededRng,
              modulus_bits: int = DEFAULT_MODULUS_BITS) -> tuple[DacParams, RootIssuerKey]:
    p, q = random_prime_pair(modulus_bits, rng)
    n = p * q
    lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
    e = random_prime(192, rng)
    while math.gcd(e, lam) != 1:
        e = random_prime(192, rng)
    root = pow(e, -1, lam)
    del p, q, lam
    cert_key = SigningKey.generate(rng)
    params = DacParams(n, e, cert_key.pk)
    return params, RootIssuerKey(params, root, cert_key)


def dac_keygen(params: DacParams, rng: SeededRng) -> tuple[int, int]:
    """(pk, sk); pk = R_sk^sk serves as the initial pseudonym."""
    u = rng.randint_bits(_SECRET_BITS) | 1
    return params.multiexp((BASE_SK, u)), u


def dac_nymgen(params: DacParams, pk: int, rng: SeededRng) -> tuple[int, int]:
    """Fresh pseudonym nym = pk * S^aux and its auxiliary randomness."""
    aux = rng.randint_bits(_SECRET_BITS) | 1
    return (pk * params.multiexp((BASE_S, aux))) % params.n, aux


# -- issuance -------------------------------------------------------------

def _opening_challenge(params: DacParams, delegation: bool, X: int, T: int) -> int:
    """Fiat-Shamir challenge of an `OpeningProof`."""
    nb = params.n_bytes
    return H_int("dac/delegate" if delegation else "dac/getcred",
                 params.fingerprint(), X.to_bytes(nb, "big"),
                 T.to_bytes(nb, "big")) >> (256 - _CHAL_BITS)


@dataclass(frozen=True)
class OpeningProof:
    """X = R_sk^a * S^b and a proof that its sender knows (a, b): X blinds
    sk in an issuance request, and is nym_d in a delegation request."""
    X: int
    c: int
    z_a: int
    z_b: int

    def to_bytes(self, params: DacParams) -> bytes:
        return (self.X.to_bytes(params.n_bytes, "big") + self.c.to_bytes(16, "big")
                + self.z_a.to_bytes(Z_BYTES, "big") + self.z_b.to_bytes(Z_BYTES, "big"))

    @classmethod
    def from_bytes(cls, data: bytes, params: DacParams) -> "OpeningProof":
        r = wire.Reader(data)
        proof = cls(r.uint(params.n_bytes), r.uint(16), r.uint(Z_BYTES),
                    r.uint(Z_BYTES))
        r.end()
        return proof


def _prove_opening(params: DacParams, delegation: bool, a: int, b: int,
                   rng: SeededRng) -> OpeningProof:
    X = params.multiexp((BASE_SK, a), (BASE_S, b))
    width = _SECRET_BITS + _CHAL_BITS + _SLACK_BITS
    k_a, k_b = rng.randint_bits(width), rng.randint_bits(width)
    c = _opening_challenge(params, delegation, X,
                           params.multiexp((BASE_SK, k_a), (BASE_S, k_b)))
    return OpeningProof(X, c, k_a + c * a, k_b + c * b)


def _opening_valid(params: DacParams, delegation: bool, proof: OpeningProof) -> bool:
    n = params.n
    if not 0 < proof.X < n:
        return False
    T = (params.multiexp((BASE_SK, proof.z_a), (BASE_S, proof.z_b))
         * pow(proof.X, -proof.c, n)) % n
    return _opening_challenge(params, delegation, proof.X, T) == proof.c


def _dkcert_body(vk_bytes: bytes) -> bytes:
    return H_tagged("dac/dkcert", vk_bytes, bytes([DELEGATION_DEPTH]))


def dac_request_cred(params: DacParams, sk: int, rng: SeededRng) -> tuple[OpeningProof, int]:
    """User side of GetCred: blind the secret key, prove the opening."""
    o_u = rng.randint_bits(_SECRET_BITS)
    return _prove_opening(params, False, sk, o_u, rng), o_u


def dac_create_cred(root: RootIssuerKey, request: OpeningProof,
                    attrs: tuple[Attribute, ...],
                    rng: SeededRng) -> tuple[int, int, DelegationKey]:
    """Issuer side of CreateCred: returns (sigma, issuer opening share, dk),
    with dk a fresh root-certified delegation key."""
    params = root.params
    n = params.n
    if len(attrs) > MAX_ATTRS:
        raise ParameterError(f"attribute set exceeds {MAX_ATTRS} slots")
    if not _opening_valid(params, False, request):
        raise CryptoError("issuance request proof invalid")
    o_i = rng.randint_bits(_SECRET_BITS)
    body = (request.X * params.multiexp(
        (BASE_S, o_i), *((i, a.digest()) for i, a in enumerate(attrs)))) % n
    sigma = pow(body, root.root, n)
    dk_key = SigningKey.generate(rng)
    return sigma, o_i, DelegationKey(dk_key, root.cert_key.sign(
        _dkcert_body(dk_key.pk.to_bytes()), rng))


def dac_get_cred(params: DacParams, sk: int, o_u: int, sigma: int, o_i: int,
                 attrs: tuple[Attribute, ...], dk: DelegationKey) -> Credential:
    """User side completion: verify the root signature, assemble the credential."""
    body = params.multiexp((BASE_SK, sk), (BASE_S, o_u + o_i),
                           *((i, a.digest()) for i, a in enumerate(attrs)))
    if pow(sigma, params.e, params.n) != body:
        raise CryptoError("issued credential does not verify")
    return Credential(sigma=sigma, opening=o_u + o_i, attrs=attrs, dk=dk)


def issue_credential(root: RootIssuerKey, sk: int, attrs: tuple[Attribute, ...],
                     rng: SeededRng) -> Credential:
    """CreateCred <-> GetCred round trip in one call (in-process issuance)."""
    request, o_u = dac_request_cred(root.params, sk, rng)
    sigma, o_i, dk = dac_create_cred(root, request, attrs, rng)
    return dac_get_cred(root.params, sk, o_u, sigma, o_i, attrs, dk)


# -- presentation ----------------------------------------------------------

@dataclass(frozen=True)
class ExtShow:
    ext: Extension
    z_rd: int               # the response for nym_d's opening r_d


@dataclass(frozen=True)
class Presentation:
    nym: int
    sigma_r: int
    c: int
    z_t: int
    z_u: int
    z_o: int
    z_r: int
    hidden: tuple[tuple[int, int], ...]          # (slot index, response)
    disclosed: tuple[tuple[int, Attribute], ...]  # (slot index, attribute)
    ext: ExtShow | None = None

    def to_bytes(self, params: DacParams) -> bytes:
        nb = params.n_bytes
        out = bytearray()
        out += bytes([1, 1])          # version, level
        out += self.nym.to_bytes(nb, "big")
        out += self.sigma_r.to_bytes(nb, "big")
        out += self.c.to_bytes(16, "big")
        out += self.z_t.to_bytes(nb, "big")
        for z in (self.z_u, self.z_o, self.z_r):
            out += z.to_bytes(Z_BYTES, "big")
        out += bytes([len(self.hidden)])
        for idx, z in self.hidden:
            out += bytes([idx]) + z.to_bytes(Z_BYTES, "big")
        out += bytes([len(self.disclosed)])
        for idx, a in self.disclosed:
            out += bytes([idx]) + a.encode()
        if self.ext is None:
            out += b"\x00"
        else:
            e = self.ext.ext
            out += bytes([1, DELEGATION_DEPTH])     # flag, extension level
            out += e.nym_d.to_bytes(nb, "big")
            out += self.ext.z_rd.to_bytes(Z_BYTES, "big")
            out += e.vk_bytes + e.cert + e.ext_sig
            out += bytes([len(e.attrs)])
            for a in e.attrs:
                out += a.encode()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, params: DacParams) -> "Presentation":
        """Strict inverse of to_bytes: raises SlapxError unless `data` is
        exactly the encoding of the presentation it returns, so a level
        byte other than 1 (DELEGATION_DEPTH in an extension) is refused."""
        nb = params.n_bytes
        r = wire.Reader(data)
        if r.take(2) != b"\x01\x01":
            raise SlapxError("bad presentation version or level")
        nym = r.uint(nb)
        sigma_r = r.uint(nb)
        c = r.uint(16)
        z_t = r.uint(nb)
        z_u, z_o, z_r = (r.uint(Z_BYTES) for _ in range(3))
        hidden = tuple((r.uint(1), r.uint(Z_BYTES)) for _ in range(r.uint(1)))
        disclosed = tuple((r.uint(1), Attribute.read(r)) for _ in range(r.uint(1)))
        ext = None
        flag = r.uint(1)
        if flag == 1:
            if r.uint(1) != DELEGATION_DEPTH:
                raise SlapxError("bad extension level")
            ssz = 16 + SCALAR_BYTES
            nym_d, z_rd = r.uint(nb), r.uint(Z_BYTES)
            ext = ExtShow(Extension(
                nym_d, r.take(ELEMENT_BYTES), r.take(ssz), r.take(ssz),
                tuple(Attribute.read(r) for _ in range(r.uint(1)))), z_rd)
        elif flag != 0:
            raise SlapxError("bad extension flag")
        r.end()
        return cls(nym=nym, sigma_r=sigma_r, c=c, z_t=z_t,
                   z_u=z_u, z_o=z_o, z_r=z_r, hidden=hidden,
                   disclosed=disclosed, ext=ext)


def _ext_body(params: DacParams, nym_d: int, attrs: tuple[Attribute, ...]) -> bytes:
    """What the delegator signs: the extension for nym_d."""
    return H_tagged("dac/ext", nym_d.to_bytes(params.n_bytes, "big"),
                    attrs_digest(attrs), bytes([DELEGATION_DEPTH]), b"\x01")


def _ext_part(params: DacParams, ext: Extension) -> bytes:
    """The extension's bytes in a compound presentation's challenge."""
    return H_tagged("dac/extpart", ext.vk_bytes, ext.cert, ext.ext_sig,
                    ext.nym_d.to_bytes(params.n_bytes, "big"),
                    attrs_digest(ext.attrs), bytes([DELEGATION_DEPTH]))


def _chain_valid(params: DacParams, ext: Extension) -> bool:
    """The root certified ext's delegation key, and that key signed ext."""
    if not 0 < ext.nym_d < params.n:
        return False
    try:
        vk = CURVE.from_bytes(ext.vk_bytes)
    except CryptoError:
        return False
    return (sgn_verify(params.cert_table, _dkcert_body(ext.vk_bytes), ext.cert)
            and sgn_verify(vk, _ext_body(params, ext.nym_d, ext.attrs), ext.ext_sig))


def _disclosed_enc(disclosed) -> bytes:
    return H_tagged("dac/disclosed",
                    *[bytes([idx]) + a.encode() for idx, a in disclosed])


def _show_challenge(params: DacParams, nym: int, sigma_r: int,
                    disclosed, context: bytes, payload: bytes,
                    T_V: int, T_nym: int, ext_part: bytes, T_ext: int | None) -> int:
    nb = params.n_bytes
    parts = [params.fingerprint(), b"\x01",        # the presentation level
             nym.to_bytes(nb, "big"), sigma_r.to_bytes(nb, "big"),
             _disclosed_enc(disclosed), context, payload,
             T_V.to_bytes(nb, "big"), T_nym.to_bytes(nb, "big"), ext_part]
    if T_ext is not None:
        parts.append(T_ext.to_bytes(nb, "big"))
    return H_int("dac/show", *parts) >> (256 - _CHAL_BITS)


def dac_cred_prove(params: DacParams, sk: int, nym: int, aux: int,
                   cred: Credential | DelegatedCredential,
                   disclose: tuple[int, ...], context: bytes,
                   rng: SeededRng, payload: bytes = b"") -> Presentation:
    """Zero-knowledge presentation disclosing the attribute slots in
    `disclose`; bound to (context, payload). For delegated credentials the
    extension attributes are shown in full alongside the base credential."""
    ext_cred = cred if isinstance(cred, DelegatedCredential) else None
    base = cred if ext_cred is None else ext_cred.base
    n, e = params.n, params.e
    if any(i >= len(base.attrs) for i in disclose):
        raise CryptoError("disclosed attribute not in committed set")
    disclosed = tuple((i, base.attrs[i]) for i in sorted(disclose))
    hidden_idx = [i for i in range(len(base.attrs)) if i not in disclose]

    t_r = 2 + rng.randrange(n - 3)
    sigma_r = (base.sigma * t_r) % n

    width = _SECRET_BITS + _CHAL_BITS + _SLACK_BITS
    k_u = rng.randint_bits(width)
    k_o = rng.randint_bits(width)
    k_r = rng.randint_bits(width)
    k_t = 2 + rng.randrange(n - 3)
    k_h = {i: rng.randint_bits(width) for i in hidden_idx}

    sk_k = params.multiexp((BASE_SK, k_u))     # shared by T_V, T_nym, T_ext
    T_V = (sk_k * params.multiexp((BASE_S, k_o), *k_h.items())
           * pow(k_t, e, n)) % n
    T_nym = (sk_k * params.multiexp((BASE_S, k_r))) % n

    ext_part = b""
    T_ext = None
    k_rd = 0
    if ext_cred is not None:
        ext_part = _ext_part(params, ext_cred.ext)
        k_rd = rng.randint_bits(width)
        T_ext = (sk_k * params.multiexp((BASE_S, k_rd))) % n

    c = _show_challenge(params, nym, sigma_r, disclosed,
                        context, payload, T_V, T_nym, ext_part, T_ext)
    return Presentation(
        nym=nym, sigma_r=sigma_r, c=c,
        z_t=(k_t * pow(t_r, c, n)) % n,
        z_u=k_u + c * sk, z_o=k_o + c * base.opening, z_r=k_r + c * aux,
        hidden=tuple((i, k_h[i] + c * base.attrs[i].digest()) for i in hidden_idx),
        disclosed=disclosed,
        ext=ext_cred and ExtShow(ext_cred.ext, k_rd + c * ext_cred.r_d))


def dac_cred_verify(params: DacParams, pres: Presentation,
                    context: bytes, payload: bytes = b"") -> bool:
    n = params.n
    if not (0 < pres.sigma_r < n) or not (0 < pres.nym < n):
        return False
    e = params.e
    slots = {i for i, _ in pres.hidden} | {i for i, _ in pres.disclosed}
    if len(slots) != len(pres.hidden) + len(pres.disclosed) or any(
            i >= MAX_ATTRS for i in slots):
        return False

    c = pres.c
    # T_V = R_sk^z_u * S^z_o * z_t^e * prod(hidden R_i^z_i) * V^-c, where
    # V = sigma_r^e / prod(disclosed R_i^digest_i); V^-c is expanded so the
    # disclosed bases join the fixed-base product and sigma_r^-c shares z_t's
    # e-th power
    sk_z = params.multiexp((BASE_SK, pres.z_u))   # shared by T_V, T_nym, T_ext
    T_V = (sk_z * params.multiexp(
        (BASE_S, pres.z_o), *pres.hidden,
        *((i, c * a.digest()) for i, a in pres.disclosed))
        * pow(pres.z_t * pow(pres.sigma_r, -c, n), e, n)) % n
    T_nym = (sk_z * params.multiexp((BASE_S, pres.z_r))
             * pow(pres.nym, -c, n)) % n

    ext_part = b""
    T_ext = None
    if pres.ext is not None:
        ext = pres.ext.ext
        if not _chain_valid(params, ext):
            return False
        ext_part = _ext_part(params, ext)
        T_ext = (sk_z * params.multiexp((BASE_S, pres.ext.z_rd))
                 * pow(ext.nym_d, -c, n)) % n

    return _show_challenge(params, pres.nym, pres.sigma_r,
                           pres.disclosed, context, payload, T_V, T_nym,
                           ext_part, T_ext) == c


# -- delegation ------------------------------------------------------------

def dac_request_delegation(params: DacParams, sk: int,
                           rng: SeededRng) -> tuple[OpeningProof, int]:
    """Recipient side: one-time pseudonym nym_d = X plus opening proof."""
    r_d = rng.randint_bits(_SECRET_BITS) | 1
    return _prove_opening(params, True, sk, r_d, rng), r_d


def dac_issue_cred(params: DacParams, delegator: Credential,
                   request: OpeningProof, attrs: tuple[Attribute, ...],
                   rng: SeededRng) -> Extension:
    """Delegator side of IssueCred: sign the extension for the recipient.
    Raises unless the delegator is a root `Credential` (a delegated
    credential is terminal) and the request's opening proof holds."""
    if not isinstance(delegator, Credential):
        raise CryptoError("credential is terminal: no delegation key")
    if len(attrs) > MAX_ATTRS:
        raise ParameterError(f"attribute extension exceeds {MAX_ATTRS} slots")
    if not _opening_valid(params, True, request):
        raise CryptoError("delegation request proof invalid")
    ext_sig = delegator.dk.key.sign(_ext_body(params, request.X, attrs), rng)
    return Extension(request.X, delegator.dk.key.pk.to_bytes(), delegator.dk.cert,
                     ext_sig, attrs)


def dac_receive_cred(params: DacParams, recipient: Credential, r_d: int,
                     ext: Extension) -> DelegatedCredential:
    """Recipient side: check the chain root -> vk -> extension."""
    if not _chain_valid(params, ext):
        raise CryptoError("delegation chain invalid")
    return DelegatedCredential(ext, r_d, recipient)


# -- fixed-size wire encoding ----------------------------------------------

def encode_credential(cred: Credential | DelegatedCredential,
                      params: DacParams) -> bytes:
    out = bytearray()
    if isinstance(cred, Credential):
        out += bytes([1, 1, 1])                       # kind, level, has_dk
        out += cred.sigma.to_bytes(params.n_bytes, "big")
        out += cred.dk.key.pk.to_bytes() + cred.dk.cert + bytes([DELEGATION_DEPTH])
    else:
        e = cred.ext
        out += bytes([2, DELEGATION_DEPTH, 0])
        out += e.vk_bytes + e.cert + e.ext_sig
        out += H_tagged("dac/nymd", e.nym_d.to_bytes(params.n_bytes, "big"))[:16]
        out += attrs_digest(e.attrs)
    if len(out) > CRED_WIRE_BYTES:
        raise CryptoError(f"credential encoding exceeds {CRED_WIRE_BYTES} bytes")
    return bytes(out) + b"\x00" * (CRED_WIRE_BYTES - len(out))
