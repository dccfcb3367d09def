// Quickstart: bring up a simulated Aurora cluster, run transactions, and
// watch the consistency points advance.
//
//   $ ./quickstart
//
// What it shows:
//  * a 3-AZ cluster with one protection group (6 segments, 4/6 quorum),
//  * transactional puts/gets/scans through the writer,
//  * VCL/VDL advancing from asynchronous quorum acknowledgements alone —
//    no consensus round anywhere on the path.

#include <cstdio>

#include "src/core/cluster.h"
#include "src/quorum/geometry.h"

using namespace aurora;

int main() {
  core::AuroraOptions options;
  options.seed = 2024;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;

  core::AuroraCluster cluster(options);
  Status st = cluster.StartBlocking();
  if (!st.ok()) {
    std::printf("bootstrap failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("cluster up: %zu storage nodes in %zu AZs, volume epoch %llu\n",
              cluster.storage_nodes().size(), quorum::kAzCount,
              static_cast<unsigned long long>(
                  cluster.writer()->volume_epoch()));
  std::printf("protection group 0: %s\n\n",
              cluster.geometry().Pg(0).ToString().c_str());

  // --- Simple autocommit writes -------------------------------------------
  for (int i = 0; i < 5; ++i) {
    const std::string key = "user:" + std::to_string(1000 + i);
    st = cluster.PutBlocking(key, "balance=" + std::to_string(100 * i));
    std::printf("put %-12s -> %s   (vcl=%llu vdl=%llu)\n", key.c_str(),
                st.ToString().c_str(),
                static_cast<unsigned long long>(cluster.writer()->vcl()),
                static_cast<unsigned long long>(cluster.writer()->vdl()));
  }

  // --- A multi-statement transaction --------------------------------------
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  std::printf("\ntxn %llu: transfer 50 from user:1000 to user:1001\n",
              static_cast<unsigned long long>(txn));
  bool ready = false;
  writer->Put(txn, "user:1000", "balance=-50", [&](Status s) {
    writer->Put(txn, "user:1001", "balance=150", [&](Status s2) {
      ready = s.ok() && s2.ok();
    });
  });
  cluster.RunUntil([&]() { return ready; });
  st = cluster.CommitBlocking(txn);
  std::printf("commit: %s (commit latency p50 so far: %lldus)\n",
              st.ToString().c_str(),
              static_cast<long long>(writer->commit_latency().P50()));

  // --- Reads and a range scan ---------------------------------------------
  auto value = cluster.GetBlocking("user:1001");
  std::printf("\nget user:1001 -> %s\n",
              value.ok() ? value->c_str() : value.status().ToString().c_str());

  bool scanned = false;
  writer->Scan(kInvalidTxn, "user:", "user:~", 10, [&](auto rows) {
    if (rows.ok()) {
      std::printf("scan user:* -> %zu rows:\n", rows->size());
      for (const auto& [k, v] : *rows) {
        std::printf("  %-12s = %s\n", k.c_str(), v.c_str());
      }
    }
    scanned = true;
  });
  cluster.RunUntil([&]() { return scanned; });

  // --- Peek at the storage fleet ------------------------------------------
  std::printf("\nstorage fleet after the workload:\n");
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      std::printf(
          "  segment %u (node %u, az %u): scl=%llu, %zu hot records, "
          "%llu bytes of versions\n",
          id, node->id(), node->az(),
          static_cast<unsigned long long>(segment->scl()),
          segment->hot_log().RecordCount(),
          static_cast<unsigned long long>(segment->TotalVersionBytes()));
    }
  }
  std::printf("\nno 2PC, no Paxos — just quorum writes and local "
              "bookkeeping. Done.\n");
  return 0;
}
