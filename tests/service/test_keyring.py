"""Tests for the tenant keyring and access policy."""

import copy
import pickle

import pytest

from repro.errors import AccessDeniedError, ServiceError, StaleKeyError
from repro.service import Keyring, derive_tenant_key


class TestDerivation:
    def test_deterministic_per_tenant_and_seed(self):
        assert derive_tenant_key("alice", 7) == derive_tenant_key(
            "alice", 7)
        assert derive_tenant_key("alice", 7) != derive_tenant_key(
            "alice", 8)
        assert derive_tenant_key("alice", 7) != derive_tenant_key(
            "bob", 7)

    def test_key_material_sized_for_aes128(self):
        material = derive_tenant_key("alice", 0)
        assert len(material.key) == 16
        assert len(material.master_iv) == 16
        assert material.key != material.master_iv


class TestKeyring:
    def test_add_is_idempotent(self):
        ring = Keyring(seed=1)
        assert ring.add_tenant("alice") == ring.add_tenant("alice")
        assert ring.tenants() == ["alice"]

    def test_rejects_unusable_tenant_names(self):
        ring = Keyring()
        with pytest.raises(ServiceError):
            ring.add_tenant("")
        with pytest.raises(ServiceError):
            ring.add_tenant("a/b")  # '/' is the stream-key separator

    def test_owner_always_reads_own_objects(self):
        ring = Keyring()
        ring.add_tenant("alice")
        ring.check_read("alice", "alice")  # must not raise

    def test_share_grants_and_revoke_removes(self):
        ring = Keyring()
        ring.add_tenant("alice")
        with pytest.raises(AccessDeniedError):
            ring.check_read("alice", "bob")
        ring.share("alice", "bob")
        ring.check_read("alice", "bob")
        ring.revoke("alice", "bob")
        with pytest.raises(AccessDeniedError):
            ring.check_read("alice", "bob")

    def test_retired_key_refuses_use(self):
        ring = Keyring()
        ring.add_tenant("alice")
        assert ring.encryptor("alice") is not None
        ring.retire("alice")
        with pytest.raises(StaleKeyError):
            ring.key("alice")
        with pytest.raises(StaleKeyError):
            ring.encryptor("alice")

    def test_encryptor_round_trips(self):
        ring = Keyring(seed=3)
        ring.add_tenant("alice")
        enc = ring.encryptor("alice")
        blob = bytes(range(64))
        sealed = enc.encrypt_streams({0: blob})
        assert sealed[0] != blob
        assert ring.encryptor("alice").decrypt_streams(sealed)[0] == blob


class TestEncryptorPerTenant:
    def test_one_encryptor_per_tenant(self):
        ring = Keyring(seed=3)
        ring.add_tenant("alice")
        ring.add_tenant("bob")
        assert ring.encryptor("alice") is ring.encryptor("alice")
        assert ring.encryptor("alice") != ring.encryptor("bob")

    def test_warm_encryptor_still_fails_closed(self):
        ring = Keyring(seed=3)
        ring.add_tenant("alice")
        ring.encryptor("alice").encrypt_streams({0: bytes(40)})
        ring.retire("alice")
        with pytest.raises(StaleKeyError):
            ring.encryptor("alice")

    def test_retire_drops_the_tenants_encryptor(self):
        # A warm encryptor holds the expanded key schedule and the
        # keystream it derived: retiring the key takes both out of the
        # keyring, and leaves every other tenant's encryptor in place.
        ring = Keyring(seed=3)
        ring.add_tenant("alice")
        ring.add_tenant("bob")
        ring.encryptor("alice").encrypt_streams({0: bytes(40)})
        bob = ring.encryptor("bob")
        bob.encrypt_streams({0: bytes(40)})
        ring.retire("alice")
        assert [material.tenant for material in ring._encryptors] == ["bob"]
        assert ring.encryptor("bob") is bob
        with pytest.raises(StaleKeyError):
            ring.encryptor("alice")
        assert [material.tenant for material in ring._encryptors] == ["bob"]

    def test_pickle_and_copy_carry_no_encryptors(self):
        ring = Keyring(seed=3)
        ring.add_tenant("alice")
        ring.add_tenant("bob")
        ring.share("alice", "bob")
        blob = pickle.dumps(ring)
        warm = ring.encryptor("alice")
        warm.encrypt_streams({0: bytes(40), 1: bytes(8)})
        assert pickle.dumps(ring) == blob
        assert sorted(ring.__getstate__()) == ["_keys", "_policies", "seed"]
        for clone in (pickle.loads(blob), copy.deepcopy(ring)):
            assert clone._encryptors == {}
            assert clone.encryptor("alice") is not warm
            assert clone.encryptor("alice") == warm
            assert clone.policy("alice").shared_with == {"bob"}
