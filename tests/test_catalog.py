import pytest

from genprob import GroupError, UnknownName
from genprob.catalog import CatalogEntry, entry, list_entries, load, names

from conftest import catalog_group, catalog_names

REQUIRED = (
    [f"C{n}" for n in range(2, 13)]
    + [f"D{2 * m}" for m in (3, 4, 5, 6, 7, 8, 9, 27, 81)]
    + ["Q8", "SL23"]
    + [f"S{n}" for n in (3, 4, 5, 6, 7)]
    + [f"A{n}" for n in (4, 5, 6, 7)]
    + ["PSL27", "Klein", "C3xA5", "S3xA5", "Q8xS3", "S3xC2"]
)


class TestManifest:
    def test_required_members_present(self):
        assert set(REQUIRED) <= set(names())

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            load("M11")
        with pytest.raises(UnknownName):
            entry("M11")

    def test_entries_have_all_fields(self):
        for e in list_entries():
            assert e.expected_order >= 1
            assert set(e.tags) == {"abelian", "nilpotent", "soluble", "simple"}

    def test_entry_construction(self):
        tags = {"abelian": True, "nilpotent": True, "soluble": True, "simple": False}
        positional = CatalogEntry("C4", "groups/C4.grp", 4, tags)
        keyword = CatalogEntry(name="C4", file="groups/C4.grp", expected_order=4, tags=tags)
        assert positional == keyword == entry("C4")
        assert positional != CatalogEntry("C4", "groups/C4.grp", 2, tags)
        with pytest.raises(AttributeError):
            positional.expected_order = 8
        for order in (0, -4):
            with pytest.raises(GroupError, match="expected order must be positive"):
                CatalogEntry("C4", "groups/C4.grp", order, tags)


class TestLoad:
    @pytest.mark.parametrize("name", catalog_names())
    def test_order_matches_manifest(self, name):
        G = catalog_group(name)
        assert G.order == entry(name).expected_order

    @pytest.mark.parametrize("name", catalog_names())
    def test_tags_match_computed_predicates(self, name):
        G = catalog_group(name)
        tags = entry(name).tags
        assert tags["abelian"] == G.is_abelian
        assert tags["nilpotent"] == G.is_nilpotent
        assert tags["soluble"] == G.is_soluble

    @pytest.mark.parametrize(
        "name", ["C5", "A5", "A6", "A7", "PSL27", "S4", "SL23", "Q8", "D12"]
    )
    def test_simple_tag(self, name):
        G = catalog_group(name)
        is_simple = G.order > 1 and not any(
            1 < G.normal_closure([rep]).order < G.order
            for rep, _ in G.conjugacy_classes()
        )
        assert entry(name).tags["simple"] == is_simple


class TestIdentitiesOnLargeEntries:
    # entries of order <= 360 are covered by the acceptance identity suite
    @pytest.mark.parametrize("name", ["S6", "A7", "S7"])
    def test_verify_identities(self, name):
        from genprob.probability import verify_identities

        assert verify_identities(catalog_group(name)).passed


class TestSpotFacts:
    def test_a5(self):
        G = catalog_group("A5")
        assert G.order == 60
        assert entry("A5").tags["simple"]
        assert not G.is_soluble

    def test_sl23(self):
        G = catalog_group("SL23")
        assert G.order == 24
        assert G.is_soluble and not G.is_nilpotent
        assert len(G.center()) == 2

    def test_psl27_is_perfect(self):
        G = catalog_group("PSL27")
        assert G.order == 168
        assert G.derived_subgroup().order == 168

    def test_q8_unique_involution(self):
        G = catalog_group("Q8")
        involutions = [e for e in G.elements() if e.order() == 2]
        assert len(involutions) == 1

    def test_dihedral_tower_members(self):
        for m in (9, 27, 81):
            G = catalog_group(f"D{2 * m}")
            assert G.order == 2 * m
            assert not G.is_nilpotent

    def test_direct_products_have_disjoint_supports(self):
        for name, left_degree in [("C3xA5", 3), ("S3xA5", 3), ("Q8xS3", 8), ("S3xC2", 3)]:
            G = catalog_group(name)
            moved = [
                {i for i in range(G.degree) if g.images[i] != i} for g in G.generators
            ]
            left = set().union(*(m for m in moved if m and max(m) < left_degree))
            right = set().union(*(m for m in moved if m and min(m) >= left_degree))
            assert left and right and not (left & right)
