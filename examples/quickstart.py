"""Quickstart: track one bus and predict its arrival, end to end.

Builds a small synthetic city, trains WiLocator offline from two days of
simulated history, then replays one live trip: riders' phones scan WiFi
every 10 s, the server positions the bus on the route's Signal Voronoi
Diagram, and predicts when it reaches the remaining stops.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import WiLocatorServer
from repro.core.server import history_from_ground_truth
from repro.core.svd import RoadSVD
from repro.mobility import CitySimulator, DispatchSchedule
from repro.radio import RadioEnvironment, deploy_aps_along_network
from repro.roadnet import build_grid_city, BusRoute, BusStop
from repro.sensing import CrowdSensingLayer, Smartphone
from repro.sensing.route_id import PerfectRouteIdentifier


def build_city():
    """A 4x4 grid city with one L-shaped bus route."""
    network = build_grid_city(rows=4, cols=4, block_m=400.0)
    # Route 7: east along street 0, then north along avenue 3.
    segment_ids = [f"ew_0_{c}" for c in range(3)] + [f"ns_3_{r}" for r in range(3)]
    stops = []
    for k, sid in enumerate(segment_ids):
        stops.append(BusStop(f"stop-{k}", sid, 0.0, name=f"Stop {k + 1}"))
    last = segment_ids[-1]
    stops.append(
        BusStop("stop-end", last, network.segment(last).length, name="Terminal")
    )
    route = BusRoute("7", network, segment_ids, stops)
    return network, route


def main() -> None:
    rng = np.random.default_rng(7)
    network, route = build_city()
    print(f"city: {network}")
    print(f"route: {route}")

    # Radio layer: geo-tagged APs line the streets.
    aps = deploy_aps_along_network(network, rng, spacing_m=40.0)
    env = RadioEnvironment(aps, seed=1)
    print(f"radio: {len(aps)} geo-tagged APs deployed")

    # Offline: simulate two days of service, learn historical travel times.
    simulator = CitySimulator(network, [route], seed=2)
    schedule = DispatchSchedule(route_id="7", headway_s=1800.0)
    history_run = simulator.run([schedule], num_days=2)
    history = history_from_ground_truth(history_run)
    print(f"offline training: {len(history)} historical segment travel times")

    # The server: route SVD built from AP geo-tags + mean field.
    svd = RoadSVD.from_environment(route, env, order=3)
    print(f"diagram: {svd}")
    server = WiLocatorServer(
        routes={"7": route},
        svds={"7": svd},
        known_bssids={ap.bssid for ap in env.geo_tagged_aps()},
        history=history,
    )

    # Online: one live trip on day 2; the driver + 3 riders sense WiFi.
    live_run = simulator.run(
        [DispatchSchedule(route_id="7", first_s=8.5 * 3600.0,
                          last_s=8.5 * 3600.0, headway_s=3600.0)],
        num_days=3,
    )
    trip = [t for t in live_run.trips if t.departure_s >= 2 * 86_400.0][0]
    sensing = CrowdSensingLayer(
        env, route_identifier=PerfectRouteIdentifier(), seed=3
    )
    devices = [Smartphone(device_id="driver")] + Smartphone.fleet(
        3, rng, prefix="rider"
    )
    reports = sensing.reports_for_trip(trip, devices)
    print(f"\nlive trip {trip.trip_id}: {len(reports)} scan reports uploaded")

    errors = []
    for i, report in enumerate(reports):
        fix = server.ingest(report)
        if fix is None:
            continue
        errors.append(abs(fix.arc_length - trip.arc_at(report.t)))
        if i % 12 == 0:
            eta = server.predict_arrival(report.session_key, "stop-end")
            eta_str = (
                f"terminal ETA in {eta.t_arrival - report.t:5.0f} s"
                if eta
                else "terminal reached"
            )
            print(
                f"  t+{report.t - trip.departure_s:5.0f}s  bus at "
                f"{fix.arc_length:6.0f} m (err {errors[-1]:4.1f} m)  {eta_str}"
            )

    actual = trip.end_s - trip.departure_s
    print(f"\ntrip finished after {actual:.0f} s")
    print(
        f"positioning: median error {np.median(errors):.1f} m over "
        f"{len(errors)} fixes"
    )
    print(f"server stats: {server.health()['stats']}")


if __name__ == "__main__":
    main()
