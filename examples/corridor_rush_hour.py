"""Rush hour on the corridor: a rider-facing arrival board.

Reproduces the paper's headline scenario on the Metro-Vancouver-like
corridor city (Table I routes): all four routes run through the morning
rush; WiLocator tracks every bus via crowd-sensed WiFi and serves a live
arrival board for a shared corridor stop, comparing its predictions
against the schedule-based agency estimate and the eventual truth.

Run:  python examples/corridor_rush_hour.py          (~1-2 minutes)
"""

import numpy as np

from repro.baselines.agency import TransitAgencyPredictor
from repro.core.server import WiLocatorServer, history_from_ground_truth
from repro.eval.experiments import _devices_for
from repro.eval.scenarios import make_corridor_world
from repro.mobility import DispatchSchedule
from repro.mobility.traffic import DAY_S

TRAIN_DAYS = 2


def main() -> None:
    world = make_corridor_world(seed=0, ap_spacing_m=60.0, riders_per_bus=2)
    print("Corridor city (paper Table I):")
    from repro.roadnet import format_overlap_table, route_overlap_table

    print(format_overlap_table(route_overlap_table(world.scenario.route_list)))

    # Offline: two days of history from all routes.
    schedules = [
        DispatchSchedule(route_id=rid, first_s=7 * 3600.0,
                         last_s=10 * 3600.0, headway_s=1800.0)
        for rid in world.routes
    ]
    result = world.simulator.run(schedules, num_days=TRAIN_DAYS + 1)
    history = history_from_ground_truth(
        type(result)(trips=[t for t in result.trips
                            if t.departure_s < TRAIN_DAYS * DAY_S])
    )
    print(f"\noffline training: {len(history)} records "
          f"from {TRAIN_DAYS} days of service")

    print("building route diagrams (SVDs) ...")
    server = WiLocatorServer(
        routes=world.routes,
        svds=world.svds(),
        known_bssids=world.known_bssids,
        history=history,
    )
    agency = TransitAgencyPredictor(history)

    # The watched stop: a corridor stop of route 9 around km 8, shared
    # road with every other route.
    route9 = world.routes["9"]
    stop = route9.stops[32]
    stop_arc = route9.stop_arc_length(stop)
    print(f"\nwatched stop: {stop.name!r} at corridor km "
          f"{stop_arc / 1000:.1f}")

    # Online: rush-hour trips of day 2 that pass the watched stop.
    eval_trips = [
        t for t in result.trips
        if t.departure_s >= TRAIN_DAYS * DAY_S
        and 8 * 3600.0 <= t.departure_s % DAY_S < 9.5 * 3600.0
    ]
    print(f"replaying {len(eval_trips)} rush-hour trips ...\n")
    rows = []
    for trip in eval_trips:
        reports = world.sensing.reports_for_trip(
            trip, _devices_for(world, trip)
        )
        # Feed the server until the bus is ~3 km before the stop (route 9
        # frame; other routes just feed travel-time evidence).
        query_done = False
        for report in reports:
            fix = server.ingest(report)
            if (
                not query_done
                and trip.route_id == "9"
                and fix is not None
                and fix.arc_length >= stop_arc - 3_000.0
            ):
                query_done = True
                wil = server.predict_arrival(report.session_key, stop.stop_id)
                agc = agency.predict_arrival(
                    route9, fix.arc_length, report.t, stop
                )
                actual = trip.time_at_arc(stop_arc)
                if wil and agc and actual:
                    rows.append(
                        (trip.trip_id, report.t, wil.t_arrival,
                         agc.t_arrival, actual)
                    )

    print(f"{'bus':<10}{'queried':>9}{'WiLocator':>11}{'agency':>9}"
          f"{'actual':>9}{'wil err':>9}{'agc err':>9}")
    wil_errs, agc_errs = [], []
    for trip_id, t_q, wil_t, agc_t, actual in rows:
        wil_errs.append(abs(wil_t - actual))
        agc_errs.append(abs(agc_t - actual))
        tod = lambda s: f"{int(s % DAY_S // 3600):02d}:{int(s % 3600 // 60):02d}"
        print(
            f"{trip_id:<10}{tod(t_q):>9}{tod(wil_t):>11}{tod(agc_t):>9}"
            f"{tod(actual):>9}{wil_errs[-1]:>8.0f}s{agc_errs[-1]:>8.0f}s"
        )

    print(
        f"\nmean |error| over {len(rows)} arrivals: "
        f"WiLocator {np.mean(wil_errs):.0f} s vs agency "
        f"{np.mean(agc_errs):.0f} s"
    )
    print(f"server: {server.health()['stats']}")


if __name__ == "__main__":
    main()
