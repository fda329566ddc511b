#include "reference.h"

#include <future>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "data/partitioner.h"

namespace geobench {
namespace {

using gs::Record;

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(gs::ThreadPool& pool) : pool_(pool) {}

  std::vector<std::int64_t> Counts(const gs::Rdd& rdd) {
    if (rdd.kind() == gs::RddKind::kShuffled) {
      Prepare(*rdd.parents().front());
      return ShardCounts(static_cast<const gs::ShuffledRdd&>(rdd));
    }
    Prepare(rdd);
    std::vector<std::future<std::int64_t>> counts;
    for (int p = 0; p < rdd.num_partitions(); ++p) {
      counts.push_back(pool_.Submit([this, &rdd, p] {
        return static_cast<std::int64_t>(Eval(rdd, p).size());
      }));
    }
    std::vector<std::int64_t> out;
    for (auto& c : counts) out.push_back(c.get());
    return out;
  }

 private:
  // Materializes every shuffle below `rdd` (parents first), so that Eval
  // only reads shuffle_out_ and can run on several threads at once.
  void Prepare(const gs::Rdd& rdd) {
    if (!visited_.insert(&rdd).second) return;
    for (const gs::RddPtr& parent : rdd.parents()) Prepare(*parent);
    if (rdd.kind() == gs::RddKind::kShuffled) {
      ComputeShuffle(static_cast<const gs::ShuffledRdd&>(rdd));
    }
  }

  std::vector<Record> Eval(const gs::Rdd& rdd, int p) const {
    switch (rdd.kind()) {
      case gs::RddKind::kSource:
        return *static_cast<const gs::SourceRdd&>(rdd).partition(p).records;
      case gs::RddKind::kMapPartitions: {
        const auto& m = static_cast<const gs::MapPartitionsRdd&>(rdd);
        return m.fn()(p, Eval(*m.parent(), p));
      }
      case gs::RddKind::kUnion: {
        const auto [parent, parent_p] =
            static_cast<const gs::UnionRdd&>(rdd).Resolve(p);
        return Eval(*rdd.parents()[static_cast<std::size_t>(parent)],
                    parent_p);
      }
      case gs::RddKind::kTransferred:
        return Eval(*rdd.parents().front(), p);
      case gs::RddKind::kShuffled:
        return shuffle_out_.at(&rdd)[static_cast<std::size_t>(p)];
    }
    GS_CHECK_MSG(false, "unknown rdd kind");
    return {};
  }

  // Runs fn(shard-of, records) over every parent partition of a shuffle
  // on the pool and returns the results in partition order.
  template <typename Fn>
  auto OverParentPartitions(const gs::ShuffledRdd& rdd, Fn fn) {
    const gs::Partitioner& part = *rdd.shuffle().partitioner;
    auto shard_of = [&part](const Record& r) {
      return static_cast<std::size_t>(part.ShardOf(r.key));
    };
    using R = decltype(fn(shard_of, std::vector<Record>{}));
    std::vector<std::future<R>> futures;
    for (int q = 0; q < rdd.parent()->num_partitions(); ++q) {
      futures.push_back(pool_.Submit([this, &rdd, fn, shard_of, q] {
        return fn(shard_of, Eval(*rdd.parent(), q));
      }));
    }
    std::vector<R> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  }

  // Buckets every parent partition by the shuffle's partitioner. Shuffles
  // with a reduce combine merge equal keys while bucketing, which keeps a
  // WordCount-sized shuffle small; ProcessShard then applies the shuffle's
  // own reduce-side semantics (combine, group or sort) to each shard.
  void ComputeShuffle(const gs::ShuffledRdd& rdd) {
    const gs::ShuffleInfo& info = rdd.shuffle();
    const auto shards =
        static_cast<std::size_t>(info.partitioner->num_shards());
    using Merged = std::unordered_map<std::string, gs::Value>;
    auto merge = [&info](Merged& into, const std::string& key,
                         const gs::Value& value) {
      auto [it, fresh] = into.try_emplace(key, value);
      if (!fresh) it->second = info.reduce_combine(it->second, value);
    };
    struct Bucketed {
      std::vector<std::vector<Record>> plain;
      std::vector<Merged> merged;
    };
    std::vector<Bucketed> parts = OverParentPartitions(
        rdd, [&](const auto& shard_of, std::vector<Record> records) {
          Bucketed b{std::vector<std::vector<Record>>(shards),
                     std::vector<Merged>(shards)};
          for (Record& r : records) {
            if (info.reduce_combine) {
              merge(b.merged[shard_of(r)], r.key, r.value);
            } else {
              b.plain[shard_of(r)].push_back(std::move(r));
            }
          }
          return b;
        });

    std::vector<std::vector<Record>> shard_in(shards);
    std::vector<Merged> merged(shards);
    for (Bucketed& b : parts) {
      for (std::size_t k = 0; k < shards; ++k) {
        for (Record& r : b.plain[k]) shard_in[k].push_back(std::move(r));
        for (auto& [key, value] : b.merged[k]) merge(merged[k], key, value);
      }
    }
    std::vector<std::vector<Record>> out;
    for (std::size_t k = 0; k < shards; ++k) {
      for (auto& [key, value] : merged[k]) {
        shard_in[k].push_back(Record{key, std::move(value)});
      }
      out.push_back(rdd.ProcessShard(std::move(shard_in[k])));
    }
    shuffle_out_[&rdd] = std::move(out);
  }

  // Output record count of each shard of a final shuffle, without keeping
  // its records: combining and grouping shuffles emit one record per
  // distinct key, sorting and plain ones one per input record.
  std::vector<std::int64_t> ShardCounts(const gs::ShuffledRdd& rdd) {
    const gs::ShuffleInfo& info = rdd.shuffle();
    const auto shards =
        static_cast<std::size_t>(info.partitioner->num_shards());
    const bool by_key = info.reduce_combine || info.group_values;
    using Keys = std::unordered_set<std::string>;
    struct Counted {
      std::vector<std::int64_t> records;
      std::vector<Keys> keys;
    };
    std::vector<Counted> parts = OverParentPartitions(
        rdd, [&](const auto& shard_of, std::vector<Record> records) {
          Counted c{std::vector<std::int64_t>(shards), std::vector<Keys>(shards)};
          for (Record& r : records) {
            const std::size_t k = shard_of(r);
            if (by_key) {
              c.keys[k].insert(std::move(r.key));
            } else {
              ++c.records[k];
            }
          }
          return c;
        });
    std::vector<std::int64_t> counts(shards);
    std::vector<Keys> keys(shards);
    for (Counted& c : parts) {
      for (std::size_t k = 0; k < shards; ++k) {
        counts[k] += c.records[k];
        keys[k].merge(c.keys[k]);
      }
    }
    if (by_key) {
      for (std::size_t k = 0; k < shards; ++k) {
        counts[k] = static_cast<std::int64_t>(keys[k].size());
      }
    }
    return counts;
  }

  gs::ThreadPool& pool_;
  std::unordered_set<const gs::Rdd*> visited_;
  std::unordered_map<const gs::Rdd*, std::vector<std::vector<Record>>>
      shuffle_out_;
};

}  // namespace

std::vector<std::int64_t> ReferencePartitionCounts(const gs::Rdd& final_rdd,
                                                   gs::ThreadPool& pool) {
  return ReferenceEvaluator(pool).Counts(final_rdd);
}

}  // namespace geobench
