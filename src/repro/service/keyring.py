"""Minimal keyring and per-tenant access policy.

Every tenant owns one AES-128 key + master IV pair, derived
deterministically from the keyring seed (the whole service is a
simulation harness — determinism *is* the security property under
test here, not secrecy). The keyring answers three questions:

* **what key encrypts tenant T's streams** — :meth:`Keyring.encryptor`
  hands out the per-tenant :class:`~repro.crypto.streams.StreamEncryptor`
  (CTR mode: positional, so damage coordinates survive decryption),
  built once per tenant;
* **may tenant A read tenant B's object** — owner always; otherwise
  only if B's policy lists A in ``shared_with`` (checked by
  :meth:`Keyring.check_read`, which raises
  :class:`~repro.errors.AccessDeniedError`);
* **is the key still live** — an operator can :meth:`Keyring.retire` a
  tenant's key; every later use raises
  :class:`~repro.errors.StaleKeyError` instead of decrypting under a
  revoked secret (the ``stale key`` failure mode in docs/SERVICE.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Set

from ..crypto.streams import StreamEncryptor
from ..errors import AccessDeniedError, ServiceError, StaleKeyError


@dataclass
class TenantPolicy:
    """Access policy for one tenant's objects."""

    tenant: str
    #: Tenants (other than the owner) allowed to read this tenant's
    #: objects. Reads decrypt under the *owner's* key either way.
    shared_with: Set[str] = field(default_factory=set)
    #: Retired tenants keep their ciphertext but lose the key.
    retired: bool = False


@dataclass(frozen=True)
class TenantKey:
    """One tenant's derived secret material."""

    tenant: str
    key: bytes
    master_iv: bytes


def derive_tenant_key(tenant: str, seed: int) -> TenantKey:
    """Deterministic per-tenant key material from the keyring seed.

    Key and IV are independent SHA-256 halves of ``seed | tenant`` —
    one-way in the tenant name, stable across processes.
    """
    digest = hashlib.sha256(f"keyring|{seed}|{tenant}".encode()).digest()
    return TenantKey(tenant=tenant, key=digest[:16], master_iv=digest[16:])


class Keyring:
    """Tenant key registry + access-policy check."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._keys: Dict[str, TenantKey] = {}
        self._policies: Dict[str, TenantPolicy] = {}
        #: One encryptor per live key (expanded key schedule plus the
        #: keystream it derived); rebuilt on demand, so it stays out of
        #: pickles and deep copies, and dropped when the key retires.
        self._encryptors: Dict[TenantKey, StreamEncryptor] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_encryptors"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._encryptors = {}

    def add_tenant(self, tenant: str) -> TenantKey:
        """Register ``tenant`` (idempotent) and return its key."""
        if not tenant or "/" in tenant:
            raise ServiceError(
                f"tenant names must be non-empty and '/'-free, got "
                f"{tenant!r}")
        if tenant not in self._keys:
            self._keys[tenant] = derive_tenant_key(tenant, self.seed)
            self._policies[tenant] = TenantPolicy(tenant=tenant)
        return self._keys[tenant]

    def tenants(self) -> list:
        """Registered tenant names, sorted."""
        return sorted(self._keys)

    def policy(self, tenant: str) -> TenantPolicy:
        """The tenant's policy record (must be registered)."""
        try:
            return self._policies[tenant]
        except KeyError:
            raise ServiceError(f"unknown tenant {tenant!r}") from None

    def share(self, owner: str, reader: str) -> None:
        """Grant ``reader`` read access to ``owner``'s objects."""
        self.policy(owner).shared_with.add(reader)

    def revoke(self, owner: str, reader: str) -> None:
        """Remove ``reader`` from ``owner``'s share list."""
        self.policy(owner).shared_with.discard(reader)

    def retire(self, tenant: str) -> None:
        """Retire the tenant's key: later key fetches raise
        :class:`StaleKeyError`, and the tenant's encryptor (expanded
        key schedule and derived keystream) leaves memory."""
        self.policy(tenant).retired = True
        self._encryptors.pop(self._keys[tenant], None)

    def check_read(self, owner: str, reader: str) -> None:
        """Raise :class:`AccessDeniedError` unless ``reader`` may read
        ``owner``'s objects."""
        if reader == owner:
            return
        if reader not in self.policy(owner).shared_with:
            raise AccessDeniedError(
                f"tenant {reader!r} may not read objects owned by "
                f"{owner!r}")

    def key(self, tenant: str) -> TenantKey:
        """The tenant's live key; raises :class:`StaleKeyError` if
        retired."""
        policy = self.policy(tenant)
        if policy.retired:
            raise StaleKeyError(
                f"tenant {tenant!r}'s key has been retired; its "
                f"ciphertext is unreadable until the operator restores "
                f"a key")
        return self._keys[tenant]

    def encryptor(self, tenant: str) -> StreamEncryptor:
        """The CTR-mode stream encryptor under the tenant's live key.

        Every call runs the retire check of :meth:`key` first, so a
        retired tenant's reads and writes fail closed from the next
        call on. The encryptor is built (key schedule expanded) on the
        tenant's first call and handed out again afterwards; it keeps
        the CTR keystream its calls derive, which no request owns and
        any thread may reuse, so concurrent requests share it.
        :meth:`retire` drops it.
        """
        material = self.key(tenant)
        encryptor = self._encryptors.get(material)
        if encryptor is None:
            # Racing first calls may each build one; setdefault makes
            # them all hand out the same.
            encryptor = self._encryptors.setdefault(
                material, StreamEncryptor(key=material.key,
                                          master_iv=material.master_iv,
                                          mode="CTR"))
            # A retire that ran since the check above must not find
            # the encryptor back in the registry afterwards.
            if self._policies[tenant].retired:
                self._encryptors.pop(material, None)
        return encryptor
