// The ingest boundary across the three log dialects (text, binary,
// auditd), checked through read_raw_log_any — the call every tool makes —
// except where a damaged binary magic needs read_raw_log_binary itself:
//
//   * oracle round trips: every Table-I scenario and a campaign, written
//     in each dialect, read back equal to the simulator's RawLog, and
//     symbolize to the same correlated log;
//   * golden diagnostics: the full kCorruptInput message of every item of
//     the corrupt corpora, so a change to a reader cannot silently reword
//     or re-position an error;
//   * the header rule: a module of size 0, a module whose range wraps
//     past 2^64, overlapping modules and a symbol outside every module are
//     rejected by every dialect at the record that breaks the rule;
//   * values that do not fit their field are rejected, never truncated.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "sim/scenario.h"
#include "trace/auditd_log.h"
#include "trace/binary_log.h"
#include "trace/parser.h"
#include "trace/partition.h"
#include "trace/raw_log.h"
#include "util/status.h"

namespace leaps::trace {
namespace {

enum class Dialect { kText, kBinary, kAuditd };

std::string encode(const RawLog& log, Dialect d) {
  std::ostringstream os(std::ios::binary);
  switch (d) {
    case Dialect::kText:
      write_raw_log(log, os);
      break;
    case Dialect::kBinary:
      write_raw_log_binary(log, os);
      break;
    case Dialect::kAuditd:
      write_raw_log_auditd(log, os);
      break;
  }
  return os.str();
}

util::StatusOr<RawLog> read_any(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::in | std::ios::binary);
  return read_raw_log_any(is);
}

using Reader = util::StatusOr<RawLog> (*)(std::istream&);

/// The kCorruptInput message `read` rejects `bytes` with ("" if accepted
/// or rejected with another code).
std::string corrupt_message(const std::string& bytes,
                            Reader read = read_raw_log_any) {
  std::istringstream is(bytes, std::ios::in | std::ios::binary);
  const util::StatusOr<RawLog> got = read(is);
  if (got.ok() || got.status().code() != util::StatusCode::kCorruptInput) {
    return "";
  }
  return got.status().message();
}

// ------------------------------------------------------ oracle round trip --

void expect_round_trips(const RawLog& original, const std::string& what) {
  const RawLogParser parser;
  const ParsedTrace want = parser.parse_raw(original);
  for (const Dialect d : {Dialect::kText, Dialect::kBinary, Dialect::kAuditd}) {
    SCOPED_TRACE(what + " as dialect " + std::to_string(static_cast<int>(d)));
    const util::StatusOr<RawLog> back = read_any(encode(original, d));
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(*back == original);
    const ParsedTrace got = parser.parse_raw(*back);
    EXPECT_EQ(got.log.process_name, want.log.process_name);
    EXPECT_TRUE(got.log.events == want.log.events);
  }
}

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.benign_events = 300;
  cfg.mixed_events = 240;
  cfg.malicious_events = 120;
  cfg.seed = 5;
  return cfg;
}

TEST(IngestOracle, EveryTable1ScenarioRoundTripsInEveryDialect) {
  for (const sim::ScenarioSpec& spec : sim::table1_scenarios()) {
    const sim::ScenarioLogs logs = sim::generate_scenario(spec, small_config());
    expect_round_trips(logs.benign, spec.name + "/benign");
    expect_round_trips(logs.mixed, spec.name + "/mixed");
    expect_round_trips(logs.malicious, spec.name + "/malicious");
  }
}

TEST(IngestOracle, CampaignRoundTripsInEveryDialect) {
  const sim::CampaignLogs logs = sim::generate_campaign(
      sim::find_campaign("campaign_vim_apt"), small_config());
  expect_round_trips(logs.benign, "campaign/benign");
  expect_round_trips(logs.mixed, "campaign/mixed");
  expect_round_trips(logs.malicious, "campaign/malicious");
}

// ----------------------------------------------------- golden diagnostics --

struct Golden {
  std::string input;
  std::string message;
};

void expect_goldens(const std::vector<Golden>& corpus,
                    Reader read = read_raw_log_any) {
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(corrupt_message(corpus[i].input, read), corpus[i].message)
        << "corpus item " << i;
  }
}

TEST(IngestGolden, TextCorpusMessages) {
  expect_goldens({
      {"STACK 0x10\n",
       "raw log parse error at line 1: STACK before any EVENT"},
      {"PROCESS a\nEVENT 0 1 NoSuchType\n",
       "raw log parse error at line 2: unknown event type"},
      {"EVENT zz 1 FileRead\n",
       "raw log parse error at line 1: bad decimal 'zz'"},
      {"MODULE 0x0 0x10 m\nSYMBOL 0x99 f\n",
       "raw log parse error at line 2: SYMBOL outside any MODULE"},
      {"FROB x\n", "raw log parse error at line 1: unknown record kind 'FROB'"},
      {"MODULE 0x10 xyz m\n",
       "raw log parse error at line 1: bad hex address 'xyz'"},
      {"EVENT 0 1 FileRead extra\n",
       "raw log parse error at line 1: EVENT expects 3 fields"},
      {"PROCESS\n", "raw log parse error at line 1: PROCESS expects 1 field"},
      {"MODULE 0x10 0x0 m\n",
       "raw log parse error at line 1: MODULE with zero size"},
      {"SYMBOL 0x10\n",
       "raw log parse error at line 1: SYMBOL expects 2 fields"},
      {"STACK\n", "raw log parse error at line 1: STACK expects 1 field"},
      // The header rule's plain wording, never an internal LEAPS_CHECK
      // text (expression, source file and line).
      {"MODULE 0x1000 0x1000 a\nMODULE 0x1800 0x1000 b\n",
       "raw log parse error at line 2: MODULE overlaps a: b"},
  });
}

TEST(IngestGolden, AuditdCorpusMessages) {
  expect_goldens({
      {"type=SYSCALL msg=audit(1.000:1): seq=x tid=1 syscall=0\n",
       "auditd log parse error at line 1 (byte 0): bad decimal 'x'"},
      {"type=BOGUS msg=audit(1.000:1): a=b\n",
       "auditd log parse error at line 1 (byte 0): unknown record type "
       "'BOGUS'"},
      {"type=SYSCALL msg=nonsense seq=0\n",
       "auditd log parse error at line 1 (byte 0): malformed "
       "msg=audit(ts:serial) field"},
      {"type=MMAP msg=audit(1.000:1): addr=0x1000 len=0x0 name=\"x\"\n",
       "auditd log parse error at line 1 (byte 0): MMAP with zero len"},
      {"type=SYSCALL msg=audit(1.000:1): key=\"unterminated\n",
       "auditd log parse error at line 1 (byte 0): unterminated quoted value"},
      {"type=DAEMON_START msg=audit(1.000:1): comm=\"a\"\n"
       "type=SYSCALL msg=audit(1.000:2): seq= tid=1 syscall=0\n",
       "auditd log parse error at line 2 (byte 47): empty decimal"},
      {"type=BACKTRACE msg=audit(1.000:1): frames=\"0x10\"\n",
       "auditd log parse error at line 1 (byte 0): BACKTRACE before any "
       "SYSCALL"},
      {"type=SYSCALL msg=audit(1.000:1): seq=0 tid=1\n",
       "auditd log parse error at line 1 (byte 0): missing field 'syscall'"},
      {"type=SYSCALL msg=audit(1.000:1): seq=0 tid=1 syscall=999\n",
       "auditd log parse error at line 1 (byte 0): unmapped syscall number"},
      {"type=SYSCALL msg=audit(1.000:1): seq=0 tid=1 key=\"Nope\"\n",
       "auditd log parse error at line 1 (byte 0): unknown audit key"},
      {"type=SYSCALL\n",
       "auditd log parse error at line 1 (byte 0): truncated record"},
  });
}

RawLog binary_sample() {
  sim::SimConfig cfg;
  cfg.benign_events = 400;
  cfg.mixed_events = 200;
  cfg.malicious_events = 100;
  return sim::generate_scenario(sim::find_scenario("putty_reverse_tcp"), cfg)
      .benign;
}

TEST(IngestGolden, BinaryCorpusMessages) {
  const std::string good = encode(binary_sample(), Dialect::kBinary);
  const std::string magic(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  std::string bomb = magic + "\x01x";
  bomb += "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01";  // ~2^63 modules
  // Through read_raw_log_binary: read_raw_log_any would sniff a damaged
  // magic as text.
  expect_goldens({
      {"", "binary log error at byte 0: unexpected end of stream"},
      {"LEAPSB99" + good.substr(8), "binary log error at byte 8: bad magic"},
      {good.substr(0, good.size() / 2),
       "binary log error at byte 14111: unexpected end of stream"},
      {good.substr(0, 20),
       "binary log error at byte 20: unexpected end of stream"},
      {good.substr(0, 30), "binary log error at byte 28: truncated string"},
      {bomb, "binary log error at byte 20: implausible count for modules"},
      {magic + "\x80\x80\x80\x20only",  // 64 MiB name, 4 bytes of data
       "binary log error at byte 12: truncated string"},
      {magic + std::string(64, '\x80'),  // endless varint
       "binary log error at byte 19: varint overflow"},
  }, read_raw_log_binary);
}

// --------------------------------------------------------- header rule ----

RawLog valid_header_log() {
  RawLog log;
  log.process_name = "app.exe";
  log.modules.push_back({0x1000, 0x1000, "app.exe"});
  log.modules.push_back({0x10000, 0x1000, "lib.dll"});
  log.symbols.push_back({0x10000, "f0"});
  RawEvent e;
  e.tid = 1;
  e.type = EventType::kFileRead;
  e.stack = {0x10010, 0x1010};
  log.events.push_back(e);
  return log;
}

/// Byte offset of the start of 1-based line `line` of `text`.
std::size_t line_offset(const std::string& text, std::size_t line) {
  std::size_t at = 0;
  for (std::size_t l = 1; l < line; ++l) at = text.find('\n', at) + 1;
  return at;
}

struct HeaderFault {
  const char* name;
  RawLog log;
  bool in_symbol;      // the fault is in the symbol record, not module 2
  std::string reason;  // the ModuleMap header rule's message
};

std::vector<HeaderFault> header_faults() {
  std::vector<HeaderFault> out;
  RawLog zero = valid_header_log();
  zero.modules[1].size = 0;
  out.push_back({"zero size", zero, false, "MODULE with zero size"});
  RawLog wrap = valid_header_log();
  wrap.modules[1] = {~0ULL - 0xFFF, 0x2000, "lib.dll"};
  out.push_back({"wraps", wrap, false, "MODULE range wraps past 2^64"});
  RawLog overlap = valid_header_log();
  overlap.modules[1] = {0x1800, 0x1000, "lib.dll"};
  out.push_back(
      {"overlap", overlap, false, "MODULE overlaps app.exe: lib.dll"});
  RawLog stray = valid_header_log();
  stray.symbols[0].address = 0x99999;
  out.push_back({"stray symbol", stray, true, "SYMBOL outside any MODULE"});
  return out;
}

TEST(IngestHeaderRule, TextRejectsEachFaultAtItsLine) {
  // Line 1 is the banner, 2 PROCESS, 3-4 the modules, 5 the symbol.
  for (const HeaderFault& f : header_faults()) {
    const std::string line = f.in_symbol ? "5" : "4";
    EXPECT_EQ(corrupt_message(encode(f.log, Dialect::kText)),
              "raw log parse error at line " + line + ": " + f.reason)
        << f.name;
  }
}

TEST(IngestHeaderRule, AuditdRejectsEachFaultAtItsLineAndByte) {
  // Line 1 is DAEMON_START, 2-3 the MMAP records, 4 the SYM record. A zero
  // length keeps the dialect's own field diagnostic.
  for (const HeaderFault& f : header_faults()) {
    const std::string text = encode(f.log, Dialect::kAuditd);
    const std::size_t line = f.in_symbol ? 4 : 3;
    const std::string reason =
        f.log.modules[1].size == 0 ? "MMAP with zero len" : f.reason;
    EXPECT_EQ(corrupt_message(text),
              "auditd log parse error at line " + std::to_string(line) +
                  " (byte " + std::to_string(line_offset(text, line)) +
                  "): " + reason)
        << f.name;
  }
}

TEST(IngestHeaderRule, BinaryRejectsEachFaultAtItsRecordOffset) {
  // magic (8) + "app.exe" (1 + 7) + module count (1) = 17; module 1 is
  // 2 + 2 + 8 bytes, so module 2 starts at byte 29. The symbol follows
  // module 2 (3 + 2 + 8 bytes) and the symbol count: byte 43.
  for (const HeaderFault& f : header_faults()) {
    const std::string at = f.in_symbol ? "43" : "29";
    EXPECT_EQ(corrupt_message(encode(f.log, Dialect::kBinary)),
              "binary log error at byte " + at + ": " + f.reason)
        << f.name;
  }
}

TEST(IngestHeaderRule, AcceptedLogsNeverThrowDownstream) {
  // No reader may hand parse_raw a header it would throw on (an auditd
  // capture whose second MMAP overlaps the first is the case seen in the
  // wild). The unbroken header reads in every dialect.
  for (const Dialect d : {Dialect::kText, Dialect::kBinary, Dialect::kAuditd}) {
    EXPECT_TRUE(read_any(encode(valid_header_log(), d)).ok());
  }
  for (const HeaderFault& f : header_faults()) {
    for (const Dialect d :
         {Dialect::kText, Dialect::kBinary, Dialect::kAuditd}) {
      const util::StatusOr<RawLog> got = read_any(encode(f.log, d));
      EXPECT_FALSE(got.ok()) << f.name;
      if (got.ok()) {
        EXPECT_NO_THROW((void)RawLogParser().parse_raw(*got)) << f.name;
      }
    }
  }
}

// ------------------------------------------------- values that don't fit --

TEST(IngestValues, OversizedDecimalsAreRejectedNotWrapped) {
  EXPECT_EQ(corrupt_message("EVENT 18446744073709551616 1 FileRead\n"),
            "raw log parse error at line 1: bad decimal "
            "'18446744073709551616'");
  EXPECT_EQ(corrupt_message("type=SYSCALL msg=audit(1.000:1): "
                            "seq=18446744073709551616 tid=1 syscall=0\n"),
            "auditd log parse error at line 1 (byte 0): bad decimal "
            "'18446744073709551616'");
  // A syscall number past INT_MAX must not truncate onto a mapped one
  // (2^32 + 39 would land on getpid).
  EXPECT_EQ(corrupt_message("type=SYSCALL msg=audit(1.000:1): seq=0 tid=1 "
                            "syscall=4294967335\n"),
            "auditd log parse error at line 1 (byte 0): unmapped syscall "
            "number");
}

TEST(IngestValues, TidAboveUint32IsRejectedInEveryDialect) {
  EXPECT_EQ(corrupt_message("EVENT 0 4294967296 FileRead\n"),
            "raw log parse error at line 1: tid out of range '4294967296'");
  EXPECT_EQ(corrupt_message("type=SYSCALL msg=audit(1.000:1): seq=0 "
                            "tid=4294967296 syscall=0\n"),
            "auditd log parse error at line 1 (byte 0): tid out of range "
            "'4294967296'");
  // Binary: empty name, no modules or symbols, one event whose tid varint
  // encodes 2^32.
  std::string bytes(kBinaryLogMagic, sizeof(kBinaryLogMagic));
  bytes += std::string("\x00\x00\x00\x01", 4);  // name, modules, symbols, 1
  bytes += std::string("\x00", 1);               // seq 0
  bytes += "\x80\x80\x80\x80\x10";               // tid 2^32
  bytes += std::string("\x00\x00", 2);           // type, no frames
  EXPECT_EQ(corrupt_message(bytes),
            "binary log error at byte 18: tid out of range");
  // The largest tid still fits.
  EXPECT_TRUE(read_any("EVENT 0 4294967295 FileRead\n").ok());
}

}  // namespace
}  // namespace leaps::trace
