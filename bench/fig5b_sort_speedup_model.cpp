// Figure 5(b): integer-sort parallel speedups, INIC vs Gigabit Ethernet,
// E_init = 2^25 keys, P = 1..16.
//
// INIC series: the analytic model of Section 4.2 (Equations 11-17).
// Gigabit series: the simulated TCP implementation.  The INIC speedups
// are superlinear because the serial baseline's bucket-sort passes
// ("over 5 seconds") are absorbed into the INIC stream.
#include <cstdio>

#include "apps/cluster.hpp"
#include "apps/sort_app.hpp"
#include "common/table.hpp"
#include "model/sort_model.hpp"

using namespace acc;

int main() {
  print_banner("Figure 5(b): integer sort speedup, INIC (analytic) vs GigE (simulated)");

  const std::size_t keys = std::size_t{1} << 25;
  const std::size_t cache_buckets = 256;
  model::SortAnalyticModel sort_model;
  const Time serial = sort_model.serial_time(keys);

  Table table({"P", "INIC speedup", "GigE speedup"});
  for (std::size_t p : {1, 2, 4, 8, 16}) {
    const double inic = sort_model.inic_speedup(keys, p, cache_buckets);
    apps::SimCluster cluster(p, apps::Interconnect::kGigabitTcp);
    const auto gige = apps::run_parallel_sort(cluster, keys, {.verify = false});
    table.row()
        .add(static_cast<std::int64_t>(p))
        .add(inic, 2)
        .add(serial / gige.total, 2);
  }
  table.print();

  std::puts(
      "\nExpected shape (paper): INIC superlinear (absorbed bucket sorts),"
      "\nGigabit Ethernet sublinear and flattening.");
  return 0;
}
