"""SSB schema: table layouts, cardinality rules, and value domains."""

from __future__ import annotations

import math

#: The five regions of the TPC-H / SSB geography.
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

#: Five nations per region (25 nations), in the region order above.
NATIONS_BY_REGION = {
    "AFRICA": ["ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"],
    "AMERICA": ["ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"],
    "ASIA": ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"],
    "EUROPE": ["FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"],
    "MIDDLE EAST": ["EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"],
}

NATIONS = [nation for region in REGIONS for nation in NATIONS_BY_REGION[region]]

#: Cities are the first nine characters of the nation padded, plus a digit
#: 0-9 (the dbgen convention, e.g. "UNITED KI1"), ten cities per nation.
CITIES_PER_NATION = 10

#: Manufacturer / category / brand hierarchy: 5 manufacturers, 5 categories
#: each (25 categories), 40 brands per category (1000 brands).
NUM_MFGRS = 5
CATEGORIES_PER_MFGR = 5
BRANDS_PER_CATEGORY = 40

#: The date dimension covers 1992-01-01 .. 1998-12-31 (2556 days).
DATE_START_YEAR = 1992
DATE_END_YEAR = 1998

MONTH_NAMES = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]

_DAYS_PER_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]

#: Base cardinalities at scale factor 1 (dbgen rules).
SSB_CARDINALITIES = {
    "lineorder": 6_000_000,
    "customer": 30_000,
    "supplier": 2_000,
    "part": 200_000,
    "date": 2_556,
}


def city_name(nation: str, digit: int) -> str:
    """The dbgen-style city name: first nine characters of the nation + digit."""
    if not 0 <= digit < CITIES_PER_NATION:
        raise ValueError("city digit must be in [0, 10)")
    return f"{nation[:9]:<9}{digit}"[:10]


def all_cities() -> list[str]:
    """All 250 city names in nation order."""
    return [city_name(nation, digit) for nation in NATIONS for digit in range(CITIES_PER_NATION)]


def mfgr_name(mfgr_index: int) -> str:
    """Manufacturer name, 1-based index: ``MFGR#1`` .. ``MFGR#5``."""
    return f"MFGR#{mfgr_index}"


def category_name(mfgr_index: int, category_index: int) -> str:
    """Category name, 1-based indexes: ``MFGR#11`` .. ``MFGR#55``."""
    return f"MFGR#{mfgr_index}{category_index}"


def brand_name(mfgr_index: int, category_index: int, brand_index: int) -> str:
    """Brand name, 1-based indexes: ``MFGR#1101`` .. style."""
    return f"MFGR#{mfgr_index}{category_index}{brand_index:02d}"


def ssb_table_rows(table: str, scale_factor: float) -> int:
    """Row count of an SSB table at a given scale factor.

    ``lineorder``, ``customer``, and ``supplier`` scale linearly; ``part``
    scales as ``200k * (1 + floor(log2(SF)))``; the date dimension is fixed.
    """
    if table not in SSB_CARDINALITIES:
        raise KeyError(f"unknown SSB table {table!r}")
    if scale_factor <= 0:
        raise ValueError("scale factor must be positive")
    base = SSB_CARDINALITIES[table]
    if table == "date":
        return base
    if table == "part":
        return int(base * (1 + max(0, math.floor(math.log2(scale_factor))))) if scale_factor >= 1 else max(
            200, int(base * scale_factor)
        )
    return max(1, int(base * scale_factor))


def generate_date_attributes() -> list[dict]:
    """The full date dimension as a list of per-day attribute dicts.

    Leap days are skipped (as dbgen does), giving 365 * 7 = 2555 days plus
    the spill into the first day of 1999 is omitted; the canonical SSB date
    table has 2556 rows, which we match by including Feb 29 of 1992 and 1996.
    """
    rows = []
    for year in range(DATE_START_YEAR, DATE_END_YEAR + 1):
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        day_of_year = 0
        for month_index, days in enumerate(_DAYS_PER_MONTH, start=1):
            month_days = days + (1 if (leap and month_index == 2) else 0)
            for day in range(1, month_days + 1):
                day_of_year += 1
                rows.append(
                    {
                        "d_datekey": year * 10_000 + month_index * 100 + day,
                        "d_year": year,
                        "d_month": MONTH_NAMES[month_index - 1],
                        "d_yearmonthnum": year * 100 + month_index,
                        "d_yearmonth": f"{MONTH_NAMES[month_index - 1]}{year}",
                        "d_daynuminmonth": day,
                        "d_daynuminyear": day_of_year,
                        "d_weeknuminyear": (day_of_year - 1) // 7 + 1,
                    }
                )
    return rows
