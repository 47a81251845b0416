from validate import INACTIVE, Timeline, status_error, sticky_flips, version_error

TIMELINE = Timeline(
    [
        (10.0, {"product", "product_a", "product_b"}),
        (20.0, {"product_a", "product_b"}),
        (30.0, {"product", "product_b"}),
    ]
)


def test_versions_live_before_first_install_are_inactive():
    assert TIMELINE.live_versions(1.0, 2.0) == {INACTIVE}


def test_request_spanning_an_install_may_see_either_config():
    assert TIMELINE.live_versions(19.0, 21.0) == {"product", "product_a", "product_b"}
    assert TIMELINE.live_versions(25.0, 26.0) == {"product_a", "product_b"}
    assert TIMELINE.live_versions(29.5, 31.0) == {"product", "product_a", "product_b"}


def test_version_check_rejects_a_version_that_was_not_live():
    assert version_error(TIMELINE, "product_a", 25.0, 26.0) is None
    assert "not live" in version_error(TIMELINE, "product", 25.0, 26.0)
    assert "not live" in version_error(TIMELINE, "product_a", 31.0, 32.0)
    assert version_error(TIMELINE, None, 25.0, 26.0) == "missing X-Bifrost-Version"
    assert version_error(TIMELINE, INACTIVE, 1.0, 2.0) is None
    assert version_error(TIMELINE, INACTIVE, 11.0, 12.0) is not None


def test_sticky_flip_inside_a_window_is_reported():
    window = [(20.0, 30.0)]
    samples = [
        ("c1", 21.0, 21.1, "product_a"),
        ("c2", 21.5, 21.6, "product_b"),
        ("c1", 22.0, 22.1, "product_b"),  # flip
        ("c2", 23.0, 23.1, "product_b"),
        ("c1", 24.0, 24.1, "product_a"),
    ]
    assert sticky_flips(samples, window) == [2]


def test_sticky_check_ignores_requests_outside_windows_and_new_clients():
    window = [(20.0, 30.0)]
    samples = [
        ("c1", 15.0, 15.1, "product"),  # before the window
        ("c1", 21.0, 21.1, "product_a"),
        ("c1", 29.9, 30.2, "product_b"),  # straddles the window's end
        (None, 22.0, 22.1, "product_b"),  # sent before any cookie existed
        ("c1", 31.0, 31.1, "product_b"),
    ]
    assert sticky_flips(samples, window) == []


def test_status_check():
    assert status_error("buy", 204, {"buy": 204}) is None
    assert status_error("details", 200, {"buy": 204}) is None
    assert "expected 204" in status_error("buy", 200, {"buy": 204})
