"""Performance P1 — pipeline scaling with corpus size.

The paper's future work calls for "a larger pool of courses"; this bench
measures how the full pipeline (generation → matrix → NNMF typing) scales
from the paper's 20 courses to 10x and 25x that, and how the
list-scheduling simulator scales with task-graph size — the
computational kernels of the library.
"""

import pytest

from repro.analysis import build_course_matrix, type_courses
from repro.corpus import generate_corpus, synthetic_roster
from repro.curriculum import load_cs2013
from repro.taskgraph import layered_random_dag, list_schedule


@pytest.mark.parametrize("n_courses", [20, 100, 400])
def test_pipeline_scaling(benchmark, n_courses):
    tree = load_cs2013()
    roster = synthetic_roster(n_courses, seed=1)

    def pipeline():
        courses = generate_corpus(tree, seed=0, roster=roster)
        matrix = build_course_matrix(courses, tree=tree)
        return type_courses(matrix, 4, seed=0, n_restarts=1)

    typing = benchmark(pipeline)
    assert typing.w.shape == (n_courses, 4)
    print(f"\nn={n_courses}: matrix {typing.matrix.matrix.shape}, "
          f"err={typing.reconstruction_err:.2f}")


@pytest.mark.parametrize("n_tasks", [100, 1000, 5000])
def test_scheduler_scaling(benchmark, n_tasks):
    width = 25
    graph = layered_random_dag(n_tasks // width, width, seed=3)

    schedule = benchmark(lambda: list_schedule(graph, 16))
    schedule.validate()
    assert schedule.makespan >= graph.span() - 1e-9
    print(f"\n{graph.n_tasks} tasks, {graph.n_edges} edges: "
          f"makespan={schedule.makespan:.1f}, speedup={schedule.speedup():.2f}")
