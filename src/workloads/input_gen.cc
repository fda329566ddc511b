#include "workloads/input_gen.h"

#include <algorithm>
#include <cstdio>
#include <future>

#include "common/check.h"

namespace gs {

std::vector<double> DefaultDcWeights(int num_dcs) {
  GS_CHECK(num_dcs > 0);
  if (num_dcs == 1) return {1.0};
  // Ingest skews toward the first datacenter (driver + NameNode region).
  std::vector<double> w(num_dcs, 0.6 / (num_dcs - 1));
  w[0] = 0.4;
  return w;
}

std::vector<SourceRdd::Partition> PlacePartitions(
    const Topology& topo, std::vector<std::vector<Record>> partitions,
    const std::vector<double>& dc_weights) {
  GS_CHECK(static_cast<int>(dc_weights.size()) == topo.num_datacenters());
  const int total = static_cast<int>(partitions.size());
  GS_CHECK(total > 0);

  // Largest-remainder apportionment of partition counts to datacenters.
  std::vector<int> count(dc_weights.size(), 0);
  std::vector<std::pair<double, int>> remainder;
  int assigned = 0;
  for (std::size_t dc = 0; dc < dc_weights.size(); ++dc) {
    double exact = dc_weights[dc] * total;
    count[dc] = static_cast<int>(exact);
    assigned += count[dc];
    remainder.emplace_back(exact - count[dc], static_cast<int>(dc));
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int i = 0; assigned < total; ++i, ++assigned) {
    count[remainder[i % remainder.size()].second]++;
  }

  std::vector<SourceRdd::Partition> placed;
  placed.reserve(total);
  std::size_t next = 0;
  for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
    std::vector<NodeIndex> workers;
    for (NodeIndex n : topo.nodes_in(dc)) {
      if (topo.node(n).worker) workers.push_back(n);
    }
    GS_CHECK(!workers.empty());
    for (int k = 0; k < count[dc]; ++k) {
      GS_CHECK(next < partitions.size());
      SourceRdd::Partition part;
      part.records = MakeRecords(std::move(partitions[next++]));
      part.node = workers[k % workers.size()];
      part.bytes = SerializedSize(*part.records);
      placed.push_back(std::move(part));
    }
  }
  GS_CHECK(next == partitions.size());
  return placed;
}

std::vector<std::string> MakeVocabulary(std::size_t size, Rng& rng) {
  std::vector<std::string> vocab;
  vocab.reserve(size);
  const char* alphabet = "abcdefghijklmnopqrstuvwxyz";
  for (std::size_t i = 0; i < size; ++i) {
    int len = static_cast<int>(rng.UniformInt(3, 12));
    std::string word;
    word.reserve(len);
    for (int c = 0; c < len; ++c) {
      word.push_back(alphabet[rng.UniformInt(0, 25)]);
    }
    // Guarantee uniqueness with a short suffix.
    word += std::to_string(i % 97);
    vocab.push_back(std::move(word));
  }
  return vocab;
}

std::vector<Record> MakeTextLines(Bytes target_bytes, int words_per_line,
                                  const std::vector<std::string>& vocab,
                                  const ZipfSampler& zipf, Rng& rng) {
  GS_CHECK(words_per_line > 0);
  std::vector<Record> lines;
  Bytes produced = 0;
  while (produced < target_bytes) {
    std::string line;
    for (int w = 0; w < words_per_line; ++w) {
      if (w) line.push_back(' ');
      line += vocab[zipf.Sample(rng)];
    }
    Record r{"", std::move(line)};
    produced += SerializedSize(r);
    lines.push_back(std::move(r));
  }
  return lines;
}

namespace {

constexpr int kKeyLen = 10;
// Upper bound on one block of drawn characters. Blocks stay below glibc's
// default mmap threshold (128 KiB): freeing a larger mmapped block raises
// malloc's mmap and trim thresholds for the rest of the process, which
// showed as 14 MiB more peak RSS on a TeraSort run.
constexpr std::size_t kBlockBytes = 64 * 1024;

// Draws the characters of `count` fixed-width records in record order:
// kKeyLen key characters over `alphabet`, then `value_len` printable
// value characters, each one UniformInt draw. Returns them in blocks of
// whole records.
std::vector<std::string> DrawFixedWidth(std::size_t count, int value_len,
                                        Rng& rng,
                                        const std::string& alphabet) {
  const std::int64_t amax = static_cast<std::int64_t>(alphabet.size()) - 1;
  const std::size_t width = kKeyLen + value_len;
  const std::size_t per_block = std::max<std::size_t>(1, kBlockBytes / width);
  std::vector<std::string> blocks;
  blocks.reserve((count + per_block - 1) / per_block);
  for (std::size_t done = 0; done < count;) {
    const std::size_t n = std::min(per_block, count - done);
    char* out = blocks.emplace_back(n * width, '\0').data();
    for (std::size_t i = 0; i < n; ++i) {
      for (int c = 0; c < kKeyLen; ++c) {
        *out++ = alphabet[rng.UniformInt(0, amax)];
      }
      for (int c = 0; c < value_len; ++c) {
        *out++ = kPrintableAlphabet[rng.UniformInt(0, 63)];
      }
    }
    done += n;
  }
  return blocks;
}

// Cuts DrawFixedWidth's blocks into records, freeing each block once its
// records exist.
std::vector<Record> BuildFixedWidth(std::vector<std::string> blocks,
                                    int value_len) {
  const std::size_t width = kKeyLen + value_len;
  std::size_t count = 0;
  for (const std::string& chars : blocks) count += chars.size() / width;
  std::vector<Record> records;
  records.reserve(count);
  for (std::string& chars : blocks) {
    for (const char* at = chars.data(); at != chars.data() + chars.size();
         at += width) {
      records.push_back(Record{std::string(at, kKeyLen),
                               std::string(at + kKeyLen, value_len)});
    }
    std::string().swap(chars);
  }
  return records;
}

}  // namespace

std::vector<Record> MakeKeyValueRecords(std::size_t count, int value_len,
                                        Rng& rng,
                                        const char* key_alphabet,
                                        const std::vector<std::string>* vocab) {
  const std::string alphabet(key_alphabet);
  GS_CHECK(alphabet.size() >= 2);
  if (vocab == nullptr) {
    return BuildFixedWidth(DrawFixedWidth(count, value_len, rng, alphabet),
                           value_len);
  }
  const std::int64_t amax = static_cast<std::int64_t>(alphabet.size()) - 1;
  std::vector<Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string key(kKeyLen, alphabet[0]);
    for (char& c : key) c = alphabet[rng.UniformInt(0, amax)];
    std::string value;
    value.reserve(value_len);
    while (static_cast<int>(value.size()) < value_len) {
      if (!value.empty()) value.push_back(' ');
      value += (*vocab)[rng.UniformInt(
          0, static_cast<std::int64_t>(vocab->size()) - 1)];
    }
    value.resize(value_len);
    records.push_back(Record{std::move(key), std::move(value)});
  }
  return records;
}

std::vector<std::vector<Record>> MakeKeyValueRecordParts(
    std::size_t count, int value_len, Rng& rng, const char* key_alphabet,
    int parts, ThreadPool& pool) {
  GS_CHECK(parts > 0);
  const std::string alphabet(key_alphabet);
  GS_CHECK(alphabet.size() >= 2);
  const std::size_t per = (count + parts - 1) / parts;
  // Each partition's characters are drawn in turn, so the stream is the
  // one-partition call's; its records are built on the pool while the
  // next partition is drawn.
  std::vector<std::future<std::vector<Record>>> built;
  built.reserve(parts);
  for (int p = 0; p < parts; ++p) {
    const std::size_t begin =
        std::min(count, static_cast<std::size_t>(p) * per);
    const std::size_t end = std::min(count, begin + per);
    built.push_back(pool.Submit(
        [blocks = DrawFixedWidth(end - begin, value_len, rng, alphabet),
         value_len]() mutable {
          return BuildFixedWidth(std::move(blocks), value_len);
        }));
  }
  std::vector<std::vector<Record>> out;
  out.reserve(parts);
  for (auto& f : built) out.push_back(f.get());
  return out;
}

std::vector<std::string> UniformBoundaries(int num_shards,
                                           const char* alphabet_chars) {
  GS_CHECK(num_shards > 0);
  const std::string alphabet(alphabet_chars);
  const int n = static_cast<int>(alphabet.size());
  GS_CHECK(n >= 2);
  std::vector<std::string> boundaries;
  for (int i = 1; i < num_shards; ++i) {
    // Boundary at fraction i/num_shards of the key space; two characters
    // of precision suffice for 10-char uniform keys.
    int v = static_cast<int>(
        (static_cast<long long>(i) * n * n) / num_shards);
    std::string b;
    b.push_back(alphabet[std::min(v / n, n - 1)]);
    b.push_back(alphabet[v % n]);
    boundaries.push_back(std::move(b));
  }
  return boundaries;
}

std::vector<Record> MakeWebGraph(std::size_t num_pages, double avg_degree,
                                 Rng& rng) {
  GS_CHECK(num_pages > 1);
  std::vector<Record> pages;
  pages.reserve(num_pages);
  // Power-law-ish out-degrees: most pages have few links, a head has many.
  ZipfSampler degree_sampler(64, 1.3);
  const double degree_scale =
      avg_degree / 8.9;  // E[zipf(64,1.3)+1] ~= 8.9, rescale to avg_degree
  for (std::size_t i = 0; i < num_pages; ++i) {
    int degree = std::max(
        1, static_cast<int>((degree_sampler.Sample(rng) + 1) * degree_scale));
    std::vector<std::string> links;
    links.reserve(degree);
    for (int d = 0; d < degree; ++d) {
      std::size_t target = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(num_pages) - 1));
      if (target == i) target = (target + 1) % num_pages;
      links.push_back("p" + std::to_string(target));
    }
    pages.push_back(Record{"p" + std::to_string(i), std::move(links)});
  }
  return pages;
}

std::vector<Record> MakeLabelledDocs(std::size_t num_docs, int num_classes,
                                     int terms_per_doc,
                                     const std::vector<std::string>& vocab,
                                     const ZipfSampler& zipf, Rng& rng) {
  GS_CHECK(num_classes > 0);
  std::vector<Record> docs;
  docs.reserve(num_docs);
  for (std::size_t i = 0; i < num_docs; ++i) {
    int cls = static_cast<int>(rng.UniformInt(0, num_classes - 1));
    std::string text;
    for (int t = 0; t < terms_per_doc; ++t) {
      if (t) text.push_back(' ');
      text += vocab[zipf.Sample(rng)];
    }
    char label[16];
    std::snprintf(label, sizeof(label), "class%03d", cls);
    docs.push_back(Record{label, std::move(text)});
  }
  return docs;
}

}  // namespace gs
