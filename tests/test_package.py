"""The package's public name list."""

import opflow


def test_all_is_sorted_unique_and_resolves():
    names = opflow.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(opflow, name)] == []


def test_internal_helpers_stay_in_their_modules():
    from opflow import construct, features, graph, nn, oracle

    internal = {
        nn: ("adamw_init", "bce_loss", "gumbel_sigmoid"),
        construct: ("build_labels", "generated_workflow_id"),
        features: ("compose_operation_text",),
        graph: ("normalize_instruction",),
        oracle: ("tokenize",),
    }
    for module, names in internal.items():
        for name in names:
            assert hasattr(module, name) and not hasattr(opflow, name), name
            assert name not in opflow.__all__, name
