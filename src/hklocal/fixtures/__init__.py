"""The bundled dolphins social network (62 vertices, 159 edges, 1-based ids)
with a 20-vertex follower subset and a mixed-sign boundary vector on its
leader boundary: the reference problem of the examples."""

from importlib import resources
from pathlib import Path

__all__ = ["fixture_path", "dolphins_graph_path", "dolphins_subset_path", "dolphins_boundary_path"]


def fixture_path(name: str) -> Path:
    path = resources.files(__package__).joinpath(name)
    return Path(str(path))


def dolphins_graph_path() -> Path:
    return fixture_path("dolphins.edges")


def dolphins_subset_path() -> Path:
    return fixture_path("dolphins_followers.txt")


def dolphins_boundary_path() -> Path:
    return fixture_path("dolphins_boundary.txt")
