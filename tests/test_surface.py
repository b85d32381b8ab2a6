"""The library's public surface, pinned as SETTABLE in test_cli.py pins the
CLI: a name added to or removed from any module shows up in a diff here."""

import importlib
import types

import dpcolor
from dpcolor import MatchingAssignment

# Each module's __all__, in order.
PUBLIC = {
    "graphs": [
        "Graph", "SelfLoop", "MalformedGraph6", "from_edge_list",
        "parse_graph6", "filter_graph6", "encode_graph6", "parse_edge_list",
        "cycle_spectrum", "forbidden_cycles", "has_cycle_length",
        "FORBIDDEN_VARIANTS", "delete_vertices", "is_connected",
        "complete_graph", "cycle_graph", "path_graph", "complete_bipartite",
    ],
    "planar": [
        "Face", "PlaneEmbedding", "Disconnected", "NotGenusZero",
        "NonPlanarOrTooLarge", "NotOnFace", "trace_faces", "classify_vertex",
        "brute_force_embed", "is_planar", "load_embedding", "dump_embedding",
    ],
    "dp": [
        "InvalidMatching", "NonUniformLists", "MatchingAssignment",
        "CoverGraph", "uniform_lists", "build_cover", "find_coloring",
        "is_valid_coloring", "from_list_assignment", "parse_matching_file",
        "format_matching_file",
    ],
    "solver": [
        "BudgetExceeded", "AdversaryCertificate", "DEFAULT_BUDGET", "chi",
        "k_core", "is_dp_k_colorable", "settle_dp", "chi_dp",
        "is_k_choosable", "chi_list", "normalized_assignment_count",
    ],
    "reducibility": [
        "InvalidPartial", "ConditionsViolated", "ConfigPattern",
        "residual_lists", "extend_coloring", "find_pattern",
        "certify_reducible", "pattern_from_json", "pattern_to_json",
    ],
    "discharging": [
        "ChargeSumMismatch", "ConservationViolated", "ForbiddenCyclePresent",
        "Transfer", "ChargeState", "FaceRoles", "FaceStats",
        "initial_charges", "classify_face_roles", "path_stats", "face_stats",
        "face_charge_capacity", "face_charge_demand", "apply_rules", "audit",
        "AuditReport", "format_transfer_log",
    ],
}

REMOVED = ["RuleVariant", "VARIANTS", "CycleSpectrum", "is_planar_masks",
           "rotation_from_faces", "satisfied_variants", "core_components",
           "ExtensionCheck", "check_extension_order", "min_degree_extend"]


def test_public_names_are_pinned_and_reexported():
    assert sum(map(len, PUBLIC.values())) == 78
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"dpcolor.{module}")
        assert mod.__all__ == names, module
        for name in names:
            assert getattr(dpcolor, name) is getattr(mod, name), name
    # what dpcolor holds besides its submodules is exactly the table
    exported = {name for name, value in vars(dpcolor).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == {n for names in PUBLIC.values() for n in names}


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(dpcolor, name), name
        for module in PUBLIC:
            assert not hasattr(importlib.import_module(f"dpcolor.{module}"),
                               name), (module, name)
    assert not hasattr(MatchingAssignment, "empty")
    assert not hasattr(MatchingAssignment, "edges")
