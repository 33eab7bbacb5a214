"""Tests for Material, Course, and MaterialRepository."""

import dataclasses

import pytest

from repro.materials.course import Course, CourseLabel
from repro.materials.material import Material, MaterialRole, MaterialType, ROLE_OF_TYPE
from repro.materials.repository import MaterialRepository, SearchQuery
from tests.oracles import oracle_tag_set


def mat(mid, tags, mtype=MaterialType.LECTURE, **kw):
    return Material(mid, mid, mtype, frozenset(tags), **kw)


class TestMaterial:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Material("", "t", MaterialType.LECTURE)

    def test_mappings_coerced_to_frozenset(self):
        m = Material("m", "t", MaterialType.LAB, {"a", "b"})
        assert isinstance(m.mappings, frozenset)

    def test_every_type_has_a_role(self):
        assert set(ROLE_OF_TYPE) == set(MaterialType)

    @pytest.mark.parametrize("mtype,role", [
        (MaterialType.LECTURE, MaterialRole.DELIVERY),
        (MaterialType.ASSIGNMENT, MaterialRole.ACTIVITY),
        (MaterialType.EXAM, MaterialRole.ASSESSMENT),
        (MaterialType.LAB, MaterialRole.ACTIVITY),
    ])
    def test_role_mapping(self, mtype, role):
        assert Material("m", "t", mtype).role is role

    def test_with_mappings_returns_new(self):
        m = mat("m", ["a"])
        m2 = m.with_mappings({"b", "c"})
        assert m.mappings == frozenset({"a"})
        assert m2.mappings == frozenset({"b", "c"})
        assert m2.id == m.id

    def test_covers(self):
        m = mat("m", ["a"])
        assert m.covers("a") and not m.covers("b")


class TestCourse:
    def test_tag_set_is_union(self):
        c = Course("c", "C", materials=[mat("m1", ["a", "b"]), mat("m2", ["b", "c"])])
        assert c.tag_set() == frozenset({"a", "b", "c"})

    def test_tag_counts(self):
        c = Course("c", "C", materials=[mat("m1", ["a", "b"]), mat("m2", ["b"])])
        assert c.tag_counts() == {"a": 1, "b": 2}

    def test_duplicate_material_rejected_at_init(self):
        with pytest.raises(ValueError):
            Course("c", "C", materials=[mat("m", ["a"]), mat("m", ["b"])])

    def test_replace_rejects_duplicate_material(self):
        c = Course("c", "C", materials=[mat("m", ["a"])])
        with pytest.raises(ValueError):
            dataclasses.replace(c, materials=[*c.materials, mat("m", ["b"])])

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(Course)] + ["tags", "digest"]
    )
    def test_fields_and_memos_are_frozen(self, name):
        c = Course("c", "C", materials=[mat("m", ["a"])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, getattr(c, name))

    def test_list_materials_become_tuple(self):
        ms = [mat("m1", ["b", "a"]), mat("m2", ["c"])]
        c = Course("c", "C", materials=ms)
        assert c.materials == tuple(ms)
        ms.append(mat("m3", ["d"]))  # the caller's list stays theirs
        assert len(c) == 2 and c.tags == ("a", "b", "c")

    def test_tags_are_the_sorted_union(self):
        c = Course("c", "C", materials=[mat("m1", ["b", "x/a"]), mat("m2", ["b"])])
        assert c.tags == tuple(sorted(oracle_tag_set(c))) == ("b", "x/a")
        assert Course("e", "Empty").tags == ()

    def test_tags_by_role(self):
        c = Course("c", "C", materials=[
            mat("lec", ["a", "b"], MaterialType.LECTURE),
            mat("hw", ["b", "c"], MaterialType.ASSIGNMENT),
            mat("ex", ["c"], MaterialType.EXAM),
        ])
        roles = c.tags_by_role()
        assert roles[MaterialRole.DELIVERY] == frozenset({"a", "b"})
        assert roles[MaterialRole.ACTIVITY] == frozenset({"b", "c"})
        assert roles[MaterialRole.ASSESSMENT] == frozenset({"c"})

    def test_materials_for_tag(self):
        m1, m2 = mat("m1", ["a"]), mat("m2", ["b"])
        c = Course("c", "C", materials=[m1, m2])
        assert c.materials_for_tag("a") == [m1]

    def test_labels(self):
        c = Course("c", "C", labels=frozenset({CourseLabel.CS1}))
        assert c.has_label(CourseLabel.CS1)
        assert not c.has_label(CourseLabel.DS)

    def test_repr_compact(self):
        c = Course("c", "C", materials=[mat("m", ["a"])])
        assert "n_materials=1" in repr(c)


class TestRepository:
    @pytest.fixture()
    def repo(self):
        r = MaterialRepository()
        r.add_material(mat("java-loops", ["t/loops"], MaterialType.LECTURE,
                           author="Saule", language="Java", course_level="CS1"))
        r.add_material(mat("c-loops", ["t/loops", "t/arrays"], MaterialType.ASSIGNMENT,
                           author="Bourke", language="C", course_level="CS1",
                           datasets=("earthquakes",)))
        r.add_material(mat("trees", ["t/trees"], MaterialType.LECTURE,
                           author="KRS", language="Java", course_level="DS"))
        return r

    def test_duplicate_material_rejected(self, repo):
        with pytest.raises(ValueError):
            repo.add_material(mat("java-loops", ["x"]))

    def test_lookup(self, repo):
        assert repo.material("trees").author == "KRS"
        with pytest.raises(KeyError):
            repo.material("missing")

    def test_search_by_tag_ranks_by_overlap(self, repo):
        hits = repo.search(SearchQuery(tags=frozenset({"t/loops"})))
        assert [h.material.id for h in hits] == ["java-loops", "c-loops"]
        assert hits[0].score > hits[1].score

    def test_search_filters_combine(self, repo):
        hits = repo.search(SearchQuery(tags=frozenset({"t/loops"}), language="C"))
        assert [h.material.id for h in hits] == ["c-loops"]

    def test_search_by_author_substring(self, repo):
        hits = repo.search(SearchQuery(author="bour"))
        assert [h.material.id for h in hits] == ["c-loops"]

    def test_search_by_dataset(self, repo):
        hits = repo.search(SearchQuery(dataset="earthquake"))
        assert [h.material.id for h in hits] == ["c-loops"]

    def test_search_by_type(self, repo):
        hits = repo.search(SearchQuery(mtype=MaterialType.LECTURE))
        assert {h.material.id for h in hits} == {"java-loops", "trees"}

    def test_search_by_text(self, repo):
        hits = repo.search(SearchQuery(text="tre"))
        assert [h.material.id for h in hits] == ["trees"]

    def test_search_limit(self, repo):
        hits = repo.search(SearchQuery(), limit=2)
        assert len(hits) == 2

    def test_search_expands_internal_nodes(self, small_tree):
        repo = MaterialRepository()
        repo.add_material(mat("m", ["G/A/U1/t-topic-alpha"]))
        hits = repo.search(SearchQuery(tags=frozenset({"G/A/U1"})), tree=small_tree)
        assert [h.material.id for h in hits] == ["m"]

    def test_find_similar(self, repo):
        sim = repo.find_similar("java-loops")
        assert sim[0].material.id == "c-loops"
        assert sim[0].score > sim[1].score

    def test_add_course_registers_materials(self):
        repo = MaterialRepository()
        c = Course("c", "C", materials=[mat("m1", ["a"])])
        repo.add_course(c)
        assert repo.n_materials == 1
        assert repo.course("c") is c

    def test_add_course_conflicting_material_rejected(self):
        repo = MaterialRepository()
        repo.add_material(mat("m1", ["a"]))
        c = Course("c", "C", materials=[mat("m1", ["DIFFERENT"])])
        with pytest.raises(ValueError, match="conflicting"):
            repo.add_course(c)

    def test_add_course_shared_material_accepted(self):
        repo = MaterialRepository()
        shared = mat("m1", ["a"])
        repo.add_course(Course("c1", "C1", materials=[shared]))
        repo.add_course(Course("c2", "C2", materials=[shared]))
        assert repo.n_materials == 1 and repo.n_courses == 2

    def test_duplicate_course_rejected(self):
        repo = MaterialRepository()
        repo.add_course(Course("c", "C"))
        with pytest.raises(ValueError):
            repo.add_course(Course("c", "C"))
