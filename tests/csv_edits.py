"""Edits that break one row of a dataset CSV, each a function of the row's fields and the header.

Each edit breaks a different rule of the reader: the column count, a
parse, the label domain, the grading protocol, int64 ids, finiteness.
"""


def set_field(column, value):
    def edit(fields, header):
        fields[header.index(column)] = value
    return edit


def flip_field(column):
    def edit(fields, header):
        i = header.index(column)
        fields[i] = str(1 - int(fields[i]))
    return edit


def repeat_rater(fields, header):
    """File rater 2's first-stage rating under rater 1's id, keeping both labels."""
    i = header.index("rater_labels")
    fields[i] = fields[i].replace("2:", "1:")


def overrule_adjudicator(fields, header):
    """Make the row a stage-1 disagreement whose final label is not the adjudicator's."""
    for column, value in (("rater_labels", "1:0;2:1"), ("adjudicator_label", "3:1"),
                          ("consensus", "0"), ("final_label", "0")):
        fields[header.index(column)] = value


BROKEN_ROWS = {
    "truncated": lambda fields, header: fields.pop(),
    "non_integer_label": set_field("consensus", "yes"),
    "true_label_out_of_domain": set_field("true_label", "7"),
    "stage1_label_out_of_domain": set_field("rater_labels", "1:7;2:7"),
    "three_stage1_ratings": set_field("rater_labels", "1:0;2:0;4:0"),
    "consensus_flag_flipped": flip_field("consensus"),
    "final_label_flipped": flip_field("final_label"),
    "soft_label_out_of_range": set_field("soft_label", "1.5"),
    "non_finite_feature": set_field("f_0", "nan"),
    "sample_id_beyond_int64": set_field("sample_id", str(2**63)),
    "rater_id_beyond_int64": set_field("rater_labels", f"{-(2**63) - 1}:0;2:0"),
    "repeated_rater_id": repeat_rater,
    "final_label_not_the_adjudicators": overrule_adjudicator,
}
