import robust_vdp


def test_every_export_resolves():
    names = robust_vdp.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(robust_vdp, name), name
