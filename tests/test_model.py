"""Network/market domain types: validation and serialization round trip."""

import io
import math

from flexhedge.model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
    PriceCap,
    validate_market_data,
    validate_network,
    validate_price_cap,
)
from flexhedge.scenario import load_scenario_file, write_scenario_file


def triangle(limit23=1.0):
    return Network(
        buses=[Bus(1, is_slack=True), Bus(2), Bus(3, price_constrained=True)],
        lines=[Line(1, 2, 0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, limit23)],
    )


def test_triangle_is_valid():
    assert validate_network(triangle()) == []


def test_empty_network():
    problems = validate_network(Network(buses=[], lines=[]))
    assert "empty network" in problems
    assert "no slack bus" in problems


def test_disconnected_bus_reported():
    net = Network(buses=[Bus(1, is_slack=True), Bus(2), Bus(3)],
                  lines=[Line(1, 2, 0.1)])
    assert validate_network(net) == ["bus 3 unreachable from slack"]


def test_planted_violations_always_found():
    # mutation-style: each corruption of the valid triangle must be reported
    no_slack = Network(buses=[Bus(1), Bus(2), Bus(3, price_constrained=True)],
                       lines=triangle().lines)
    assert any("slack" in p for p in validate_network(no_slack))

    two_slack = Network(buses=[Bus(1, is_slack=True), Bus(2, is_slack=True), Bus(3)],
                        lines=triangle().lines)
    assert any("multiple slack" in p for p in validate_network(two_slack))

    bad_x = Network(buses=triangle().buses,
                    lines=[Line(1, 2, -0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert any("reactance" in p for p in validate_network(bad_x))

    tiny_x = Network(buses=triangle().buses,
                     lines=[Line(1, 2, 5e-324, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert validate_network(tiny_x) == [
        "line 1-2: reactance_pu 5e-324 is so small that its susceptance overflows"]

    bad_limit = Network(buses=triangle().buses,
                        lines=[Line(1, 2, 0.1, 0.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert any("flow_limit" in p for p in validate_network(bad_limit))

    dup = Network(buses=triangle().buses,
                  lines=[Line(1, 2, 0.1, 1.0), Line(2, 1, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert any("duplicate line" in p for p in validate_network(dup))

    self_loop = Network(buses=triangle().buses,
                        lines=[Line(1, 1, 0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert any("self loop" in p for p in validate_network(self_loop))

    ghost = Network(buses=triangle().buses,
                    lines=[Line(1, 9, 0.1, 1.0), Line(1, 3, 0.1, 1.0), Line(2, 3, 0.1, 1.0)])
    assert any("unknown bus 9" in p for p in validate_network(ghost))

    sparse_ids = Network(buses=[Bus(1, is_slack=True), Bus(5)], lines=[Line(1, 5, 0.1)])
    assert any("dense 1-based" in p for p in validate_network(sparse_ids))


def test_reachability_waits_for_known_unique_buses():
    # bus 3 hangs off an unknown bus or sits beside a duplicate id: neither
    # network reports it unreachable
    unknown_end = Network(buses=[Bus(1, is_slack=True), Bus(2), Bus(3)],
                          lines=[Line(1, 2, 0.1), Line(3, 9, 0.1)])
    assert validate_network(unknown_end) == ["line 3-9: unknown bus 9"]
    duplicate = Network(buses=[Bus(1, is_slack=True), Bus(2), Bus(2), Bus(3)],
                        lines=[Line(1, 2, 0.1)])
    assert validate_network(duplicate) == ["duplicate bus ids"]


def test_market_data_validation():
    net = triangle()
    good = HourlyMarketData(1, offers=[GenOffer(1, 50.0, 0.0, 2.0)],
                            utilities=[LoadUtility(3, 60.0, 0.0, 0.1, 0.9)])
    assert validate_market_data(net, good) == []

    twice = HourlyMarketData(1, offers=[GenOffer(1, 50.0), GenOffer(1, 55.0)])
    assert any("more than one offer" in p for p in validate_market_data(net, twice))

    ghost = HourlyMarketData(1, utilities=[LoadUtility(7, 60.0)])
    assert any("unknown bus 7" in p for p in validate_market_data(net, ghost))

    inverted = HourlyMarketData(1, utilities=[LoadUtility(3, 60.0, 0.0, 0.9, 0.1)])
    assert any("load bounds" in p for p in validate_market_data(net, inverted))

    negative = HourlyMarketData(1, offers=[GenOffer(1, -5.0)])
    assert any("negative marginal cost" in p for p in validate_market_data(net, negative))

    bad_hour = HourlyMarketData(25)
    assert any("1..24" in p for p in validate_market_data(net, bad_hour))

    for value in (math.nan, math.inf, -math.inf):
        offer = HourlyMarketData(2, offers=[GenOffer(1, value, value)])
        assert validate_market_data(net, offer) == [
            "hour 2: offer at bus 1 has non-finite marginal cost",
            "hour 2: offer at bus 1 has non-finite constant cost"]
        util = HourlyMarketData(3, utilities=[LoadUtility(3, value, value)])
        assert validate_market_data(net, util) == [
            "hour 3: utility at bus 3 has non-finite marginal utility",
            "hour 3: utility at bus 3 has non-finite constant utility"]
    endless = HourlyMarketData(5, utilities=[LoadUtility(3, 60.0, 0.0, 0.1, math.inf)])
    assert validate_market_data(net, endless) == [
        "hour 5: utility at bus 3 has non-finite max load"]
    nan_capacity = HourlyMarketData(4, offers=[GenOffer(2, 50.0, 0.0, math.nan)])
    assert validate_market_data(net, nan_capacity) == [
        "hour 4: offer at bus 2 has NaN capacity"]


def test_negative_offer_capacity_is_named():
    negative = HourlyMarketData(6, offers=[GenOffer(2, 50.0, 0.0, -1.0)])
    assert validate_market_data(triangle(), negative) == [
        "hour 6: offer at bus 2 has negative capacity"]


def test_price_cap_validation():
    net = triangle()
    assert validate_price_cap(net, PriceCap(3, 70.0)) == []
    assert any("not price constrained" in p
               for p in validate_price_cap(net, PriceCap(2, 70.0)))
    assert any("unknown bus" in p for p in validate_price_cap(net, PriceCap(9, 70.0)))
    assert any("negative" in p for p in validate_price_cap(net, PriceCap(3, -1.0)))
    short = PriceCap(3, tuple(70.0 for _ in range(23)))
    assert any("24 hourly values" in p for p in validate_price_cap(net, short))
    for value in (math.nan, math.inf, -math.inf):
        assert validate_price_cap(net, PriceCap(3, value)) == [
            "price cap at bus 3: non-finite cap value"]
    hourly = PriceCap(3, tuple(math.nan if h == 5 else 70.0 for h in range(24)))
    assert validate_price_cap(net, hourly) == ["price cap at bus 3: non-finite cap value"]


def test_price_cap_broadcast():
    scalar = PriceCap(3, 70.0)
    assert scalar.cap_for_hour(1) == scalar.cap_for_hour(24) == 70.0
    vector = PriceCap(3, tuple(float(h) for h in range(1, 25)))
    assert vector.cap_for_hour(5) == 5.0


def test_scenario_file_round_trip():
    net = triangle(limit23=0.6)
    hours = [
        HourlyMarketData(
            h,
            offers=[GenOffer(1, 46.3 + h, 0.0, 5.0), GenOffer(2, 29.4, 1.5, 0.85)],
            utilities=[LoadUtility(3, 55.123456789, 0.25, 0.5, 0.5 + h / 100)],
        )
        for h in (1, 2, 3)
    ]
    buf = io.StringIO()
    write_scenario_file(net, hours, buf)
    buf.seek(0)
    net2, hours2 = load_scenario_file(buf)
    assert net2 == net
    assert hours2 == tuple(hours)


def test_scenario_file_round_trip_unlimited_line():
    net = Network(buses=[Bus(1, is_slack=True), Bus(2)],
                  lines=[Line(1, 2, 0.25, math.inf)])
    buf = io.StringIO()
    write_scenario_file(net, [], buf)
    buf.seek(0)
    net2, _ = load_scenario_file(buf)
    assert net2.lines[0].flow_limit_mw == math.inf
    assert net2 == net


def test_infinite_reactance_is_a_violation():
    # 1 / inf is 0.0, finite: the line passed with no susceptance, islanding bus 2
    net = Network(buses=[Bus(1, is_slack=True), Bus(2)], lines=[Line(1, 2, math.inf)])
    assert validate_network(net) == ["line 1-2: reactance_pu must be finite, got inf"]
