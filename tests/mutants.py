"""Checked-in mutants of src/ldpsurf, each with the tests that kill it.

An entry names a module of src/ldpsurf, a source text that occurs in the
package exactly once, the text that replaces it, the pytest ids that fail
with the replacement in place, and what the mutant breaks.
`test_hygiene.test_every_mutant_source_occurs_once` checks the source
texts, so a change that rewrites a listed line updates its entry.  Each
entry was run on a copy of the tree against the whole suite, one pytest
process at a time under its own address-space cap; a killer is a test
that fails there and passes on the tree as it is.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str                  # module under src/ldpsurf
    source: str                # occurs exactly once in the package
    replacement: str
    killers: tuple[str, ...]   # pytest ids, from the repository root
    reason: str


# a fault in the x-frame writer's middle column fails every x-frame system
_X_FRAME_WRITER = (
    "perfbench/test_perfbench.py::test_quadrics_check_catches_repeats_and_bad_sums",
    "tests/test_acceptance.py::test_criterion_2_fixture_ideals",
    "tests/test_cli.py::test_analyze_sweeps_once_and_tables_sweeps_2p",
    "tests/test_cli.py::test_quadrics_stdout",
    "tests/test_cli.py::test_quadrics_out_file",
    "tests/test_cli.py::test_quadrics_from_file",
    "tests/test_cli.py::test_quadrics_out_file_matches_stdout_bytes",
    "tests/test_cli.py::test_quadrics_out_through_a_symlink_or_into_a_pipe",
    "tests/test_cli.py::test_quadrics_out_keeps_the_mode_of_a_replaced_file",
    "tests/test_cli.py::test_quadrics_out_memory_stays_small",
    "tests/test_cli.py::test_quadrics_output_is_byte_stable[1-13]",
    "tests/test_cli.py::test_quadrics_output_is_byte_stable[2-7]",
    "tests/test_cli.py::test_quadrics_output_is_byte_stable[3-15]",
    "tests/test_cli.py::test_quadrics_writes_x_frame_fibers_from_runs_and_sorts_the_rest",
    "tests/test_cli.py::test_line_count_failure_exits_4_and_leaves_no_file",
    "tests/test_cli.py::test_oversized_quadrics_exits_2_before_the_pair_walk",
    "tests/test_cli.py::test_large_shear_runs_as_fast_as_its_unsheared_form",
    "tests/test_cli.py::test_commands_do_the_same_work_on_a_gl2z_image",
    "tests/test_cli.py::test_parser_is_built_once_and_reused_safely",
    "tests/test_embedding.py::test_full_relation_set_rank",
    "tests/test_embedding.py::test_minimal_system_structure",
    "tests/test_embedding.py::test_span_membership",
    "tests/test_embedding.py::test_span_membership_of_every_relation_in_one_pass",
    "tests/test_embedding.py::test_lines_written_must_match_the_header",
    "tests/test_embedding.py::test_fixture_systems[2-1-14-quadrics_k2_p1.txt]",
    "tests/test_embedding.py::test_fixture_systems[3-1-9-quadrics_k3_p1.txt]",
    "tests/test_embedding.py::test_fixture_systems[3-3-182-quadrics_k3_p3.txt]",
    "tests/test_embedding.py::test_format_binomial",
    "tests/test_embedding.py::test_format_parse_roundtrip",
    "tests/test_embedding.py::test_format_ideal_matches_a_rendering_grouped_here",
)

MUTANTS = (
    Mutant("delpezzo.py",
           "if first != (k, p):",
           "if False:",
           ("tests/test_delpezzo.py::test_group_classes_rejects_mixed_class",),
           "group_classes' key check never raises, so two (k, p) sharing a "
           "graph key would print as two classes"),
    Mutant("embedding.py",
           "vhi = min(vhi, sv // 2)",
           "vhi = min(vhi, (sv - 1) // 2)",
           _X_FRAME_WRITER,
           "the middle column of an x-frame fiber drops its square "
           "z(c)·z(c); the lines written fall short of the header (exit 4)"),
    Mutant("embedding.py",
           "if pair is partner:",
           "if False:",
           _X_FRAME_WRITER,
           "the middle column of an x-frame fiber pairs every row both "
           "ways; the lines written exceed the header (exit 4)"),
    Mutant("delpezzo.py",
           "counts[cls.k, cls.p] += 4",
           "counts[cls.k, cls.p] += 3",
           (
            "perfbench/test_perfbench.py::test_enumerate_check_parses_the_summary",
            "tests/test_cli.py::test_enumerate_memory_follows_the_box",
            "tests/test_cli.py::test_quadrics_output_is_byte_stable[enumerate-3]",
            "tests/test_cli.py::test_enumerate[1]",
            "tests/test_cli.py::test_enumerate[2]",
            "tests/test_cli.py::test_enumerate[3]",
            "tests/test_cli.py::test_enumerate[4]",
            "tests/test_cli.py::test_enumerate[5]",
            "tests/test_cli.py::test_enumerate[6]",
            "tests/test_cli.py::test_enumerate[7]",
            "tests/test_delpezzo.py::test_search_cost_follows_the_answer",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[1]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[2]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[3]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[4]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[5]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[6]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[7]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[8]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[9]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[10]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[11]",
            "tests/test_delpezzo.py::test_count_matches_the_pairs[12]",
            "tests/test_delpezzo.py::test_enumerate_command_builds_no_turned_classification",
           ),
           "count_one_singularity drops one quarter turn of each walked "
           "polygon, so enumerate prints three quarters of each total"),
)
