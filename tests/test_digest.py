import digest


def test_digest_case_repeats():
    first = digest.case_lines("vssd.cross")
    assert first == digest.case_lines("vssd.cross")
    assert first[0].startswith("vssd.cross logits ")
    assert len(first) == 1 + len(digest.B.param_specs(
        digest.B.config_from_preset("desk-vssd")))
