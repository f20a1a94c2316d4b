"""Unit tests for users, groups, and challenge-response."""

import pytest

from repro.auth.users import PUBLIC, ROLES, Principal, UserRegistry
from repro.errors import AuthError, BadCredentials


@pytest.fixture
def reg():
    r = UserRegistry()
    r.add_user("sekar@sdsc", "pw", role="curator")
    r.add_user("moore@sdsc", "pw2")
    return r


class TestPrincipal:
    def test_parse(self):
        p = Principal.parse("sekar@sdsc")
        assert (p.name, p.domain) == ("sekar", "sdsc")

    def test_str_roundtrip(self):
        assert str(Principal.parse("a@b")) == "a@b"

    def test_parse_rejects_bare_name(self):
        with pytest.raises(AuthError):
            Principal.parse("sekar")

    def test_parse_rejects_empty_parts(self):
        with pytest.raises(AuthError):
            Principal.parse("@sdsc")

    def test_public_constant(self):
        assert str(PUBLIC) == "public@world"


class TestRegistry:
    def test_duplicate_rejected(self, reg):
        with pytest.raises(AuthError):
            reg.add_user("sekar@sdsc", "x")

    def test_unknown_role_rejected(self, reg):
        with pytest.raises(AuthError):
            reg.add_user("x@y", "pw", role="emperor")

    def test_role_ladder_defined(self):
        assert ROLES[0] == "public" and ROLES[-1] == "sysadmin"

    def test_role_of(self, reg):
        assert reg.role_of("sekar@sdsc") == "curator"
        assert reg.role_of(PUBLIC) == "public"

    def test_unknown_user_raises(self, reg):
        with pytest.raises(AuthError):
            reg.role_of("ghost@nowhere")


class TestGroups:
    def test_membership(self, reg):
        reg.create_group("curators")
        reg.add_to_group("curators", "sekar@sdsc")
        assert reg.groups_of("sekar@sdsc") == ["curators"]

    def test_duplicate_group_rejected(self, reg):
        reg.create_group("g")
        with pytest.raises(AuthError):
            reg.create_group("g")

    def test_add_unknown_user_to_group(self, reg):
        reg.create_group("g")
        with pytest.raises(AuthError):
            reg.add_to_group("g", "ghost@x")

    def test_remove_from_group(self, reg):
        reg.create_group("g")
        reg.add_to_group("g", "sekar@sdsc")
        reg.remove_from_group("g", "sekar@sdsc")
        assert reg.groups_of("sekar@sdsc") == []


class TestAuthentication:
    def test_challenge_response_roundtrip(self, reg):
        challenge = reg.make_challenge(1)
        salt = reg.salt_of("sekar@sdsc")
        response = UserRegistry.respond("pw", salt, challenge)
        reg.verify_response("sekar@sdsc", challenge, response)   # no raise

    def test_wrong_password_fails_challenge(self, reg):
        challenge = reg.make_challenge(1)
        salt = reg.salt_of("sekar@sdsc")
        response = UserRegistry.respond("WRONG", salt, challenge)
        with pytest.raises(BadCredentials):
            reg.verify_response("sekar@sdsc", challenge, response)

    def test_response_bound_to_challenge(self, reg):
        salt = reg.salt_of("sekar@sdsc")
        response = UserRegistry.respond("pw", salt, reg.make_challenge(1))
        with pytest.raises(BadCredentials):
            reg.verify_response("sekar@sdsc", reg.make_challenge(2), response)

    def test_disabled_user_rejected(self, reg):
        reg.disable_user("sekar@sdsc")
        challenge = reg.make_challenge(1)
        response = UserRegistry.respond("pw", reg.salt_of("sekar@sdsc"),
                                        challenge)
        with pytest.raises(BadCredentials):
            reg.verify_response("sekar@sdsc", challenge, response)

    def test_salts_differ_between_users(self, reg):
        assert reg.salt_of("sekar@sdsc") != reg.salt_of("moore@sdsc")
