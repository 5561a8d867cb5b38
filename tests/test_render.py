"""SVG output: structure, determinism, parallel-bond offsets."""
import xml.etree.ElementTree as ET

from rumer.diagrams import RumerDiagram, ValenceScheme
from rumer.render import render_svg


def test_empty_diagram_has_points_and_no_chords():
    svg = render_svg(ValenceScheme(3))
    assert svg.count("<line") == 0
    assert svg.count("<path") == 0
    assert svg.count("<text") == 3
    # 3 vertex dots plus the outline circle
    assert svg.count("<circle") == 4


def test_two_chords():
    svg = render_svg(ValenceScheme(4, [(1, 2), (3, 4)]))
    assert svg.count("<line") == 2
    assert svg.count("<circle") == 5


def test_parallel_bonds_drawn_as_offset_arcs():
    svg = render_svg(ValenceScheme(2, [(1, 2), (1, 2)]))
    assert svg.count("<path") == 2
    assert svg.count("<line") == 0
    assert svg.count("<text") == 2


def test_accepts_rumer_diagram_wrapper():
    diagram = RumerDiagram(4, [(1, 4), (2, 3)])
    assert render_svg(diagram) == render_svg(ValenceScheme(4, [(1, 4), (2, 3)]))


def test_deterministic_bytes():
    g = ValenceScheme(5, [(1, 3), (1, 3), (4, 5)])
    assert render_svg(g) == render_svg(g)


def test_well_formed_xml():
    g = ValenceScheme(4, [(1, 2), (1, 2), (3, 4)])
    root = ET.fromstring(render_svg(g))
    assert root.tag.endswith("svg")
