"""Walk through the boundary-condition pipeline for one day.

A run works out its boundary for every step before the first one, as
arrays over the step instants (``boundary_series``). This builds that
series for the bundled day at hourly steps and shows the sun's path for
the bundled site, the plane-of-array irradiance each facade receives after
isotropic transposition, and the clear-sky fallback used when a weather
file has no sky temperature column.
"""

import numpy as np

import heatgrid as hg
from heatgrid.building import DIR_ORIENTATION
from heatgrid.cli import default_building_path, default_weather_path

_, _, config = hg.load_building_file(default_building_path())
records = hg.load_weather_file(default_weather_path())
site = config.site

series = hg.boundary_series(records, site, records[0].timestamp, 3600.0, len(records) - 1)
poa = dict(zip(DIR_ORIENTATION, series.poa.T))  # facade -> irradiance at every step

print(f"site: lat {site.latitude}, lon {site.longitude}, albedo {site.albedo}\n")
print(f"{'clock':>6} {'zenith':>8} {'azimuth':>8} {'G north':>8} {'G east':>8} "
      f"{'G south':>8} {'G west':>8}")
for i, when in enumerate(series.when):
    zenith, azimuth = series.sun.zenith[i], series.sun.azimuth[i]
    if series.poa[i].max() == 0.0 and zenith > 100.0:
        continue  # skip deep night rows
    print(f"{str(when)[11:16]} {zenith:>8.1f} {azimuth:>8.1f} "
          f"{poa['north'][i]:>8.1f} {poa['east'][i]:>8.1f} {poa['south'][i]:>8.1f} "
          f"{poa['west'][i]:>8.1f}")
print(f"\nthe series of {len(series.when)} steps: ambient "
      f"{np.min(series.t_inf) - 273.15:.1f} .. {np.max(series.t_inf) - 273.15:.1f} C, sky "
      f"{np.min(series.t_sky) - 273.15:.1f} .. {np.max(series.t_sky) - 273.15:.1f} C")

print("\nsky temperature fallback (no t_sky column): 0.0552 * T_air^1.5")
print(f"{'T_air [C]':>10} {'T_sky [C]':>10} {'depression [K]':>15}")
for t_air_c in (-10.0, 0.0, 10.0, 20.0, 30.0):
    record = hg.WeatherRecord(
        timestamp=records[0].timestamp, t_air=t_air_c + 273.15, t_gnd=283.15,
        t_sky=None, ghi=0.0, dni=0.0, dhi=0.0,
    )
    t_sky = hg.sky_temperature(record)
    print(f"{t_air_c:>10.1f} {t_sky - 273.15:>10.1f} {record.t_air - t_sky:>15.1f}")
