"""Historical analytics warehouse over the kvstore journal (ROADMAP 5).

``repro.warehouse`` compacts the durable journal (or a store snapshot)
into columnar segments — one per coarse H3 cell and UTC day, the fine
cell a sorted column — then answers OLAP queries
(heatmaps, event-rate time series, congestion trends, vessel histories)
with zone-map pruning from the manifest. See WAREHOUSE.md.
"""

from repro.warehouse.compactor import WarehouseCompactor, event_row
from repro.warehouse.query import WarehouseQueries
from repro.warehouse.segments import (
    CorruptSegmentError,
    EVENT_COLUMNS,
    POSITION_COLUMNS,
    empty_table,
    read_segment,
    sort_rows,
    table_rows,
    write_segment,
)
from repro.warehouse.warehouse import (
    DAY_S,
    Warehouse,
    day_of,
    partition_key,
    parse_partition_key,
)

__all__ = [
    "CorruptSegmentError",
    "DAY_S",
    "EVENT_COLUMNS",
    "POSITION_COLUMNS",
    "Warehouse",
    "WarehouseCompactor",
    "WarehouseQueries",
    "day_of",
    "empty_table",
    "event_row",
    "partition_key",
    "parse_partition_key",
    "read_segment",
    "sort_rows",
    "table_rows",
    "write_segment",
]
