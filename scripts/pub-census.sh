#!/bin/sh
# pub-census.sh [out-file]
#
# Who calls each public item of the workspace crates. For every `pub` item in
# crates/*/src - a free fn, struct, enum, trait, type alias, const or static, a
# `pub fn` or `pub const` of an inherent impl, and every method of a
# `pub trait` - prints one row:
#
#   <defining file> <kind> <name> <callers, or -> [unit tests: <crates>] [kept: <why>]
#
# A caller is a mention of the item outside its defining file, in non-test
# code - crates/*/src, the perf harness (crates/bench/perf/src), examples/,
# the integration tests (tests/, crates/*/tests/) - or in another crate's
# unit tests. It is named by where it sits: a crate (`core` is another module
# of crates/core/src), `perf`, `examples/<name>`, `tests/<name>`,
# `<crate>/tests/<name>`, or `<crate>:test` for unit tests. Comments, doc
# comments (so doctests) and `pub use` re-exports never count, and neither
# does the defining crate's own `#[cfg(test)]` code: when only its unit tests
# in other files use an uncalled item, they follow "unit tests:", and the
# item can become `#[cfg(test)]`.
#
# Matching is by name, not by type: a type or const is mentioned by its name,
# a free fn by a call, an import or `module::name`, an associated fn by
# `Type::name`, a method by `.name(` or `Type::name`, a trait method by
# `.name(` or `Trait::name`. A type or trait is also called where one of its
# members is (an associated item, or a `pub` field read as `.field`), shown
# as "via members". A row with callers may be a name collision; a row with
# none has no caller anywhere.
#
# Rows without a caller are kept only for the groups in `kept` below (the
# paper's modules and the Table 2 applications), and
# the last line counts them. The output is sorted and byte-deterministic:
# `make pub-census` writes docs/PUB_CENSUS.txt and CI diffs it, so a new
# `pub` item ships together with its row.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
export LC_ALL=C

defs=$(find crates/*/src -name '*.rs' | sort)
others=$(find crates/bench/perf/src examples tests crates/*/tests src -name '*.rs' | sort)

# shellcheck disable=SC2086 # the file lists are word-split on purpose
awk -v defs="$defs" '
    BEGIN { n = split(defs, d, "\n"); for (i = 1; i <= n; i++) is_def[d[i]] = 1 }

    FNR == 1 {
        test_indent = -1; in_use = 0; importing = 0; ctx = ""; sig = ""
        place = FILENAME; sub(/\.rs$/, "", place)
        if (place ~ /^crates\/bench\/perf\//) place = "perf"
        else if (place ~ /^crates\/[^\/]+\/src\//) { sub(/^crates\//, "", place); sub(/\/.*/, "", place) }
        else if (place ~ /^src\//) place = "pando"
        else sub(/^crates\//, "", place)
    }

    # Records one mention - kind w (a bare word), c (a word called, named by
    # a path or imported), p (an `A::B` pair), m (a `.name(` call) or f (a
    # `.name` field read) - by file, its place and whether it is test code.
    function mention(kind, name, test) {
        if (!((test, kind, name, FILENAME) in seen)) {
            seen[test, kind, name, FILENAME] = 1
            at[test, kind, name] = at[test, kind, name] " " FILENAME "=" place
        }
    }

    function scan(s, test, importing,    tok, pre, post, n, seg, i, last) {
        while (match(s, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*/)) {
            tok = substr(s, RSTART, RLENGTH)
            pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
            post = substr(s, RSTART + RLENGTH, 2)
            if (post != "::") post = substr(post, 1, 1)
            s = substr(s, RSTART + RLENGTH)
            n = split(tok, seg, "::")
            for (i = pre == "." ? 2 : 1; i <= n; i++) mention("w", seg[i], test)
            if (n == 1 && pre != "." && last != "fn" && (importing || post == "(" || post == "::"))
                mention("c", tok, test)
            last = tok
            for (i = 1; i < n; i++) mention("p", seg[i] "::" seg[i + 1], test)
            if (pre == "." && (post == "(" || post == "::")) mention("m", seg[1], test)
            else if (pre == ".") mention("f", seg[1], test)
        }
    }

    # The implemented type of an `impl` header, or "" for a trait impl.
    function impl_type(s,    depth, i, c) {
        sub(/^(unsafe )?impl/, "", s)
        if (substr(s, 1, 1) == "<") {
            depth = 0
            for (i = 1; i <= length(s); i++) {
                c = substr(s, i, 1)
                if (c == "<") depth++
                else if (c == ">" && --depth == 0) break
            }
            s = substr(s, i + 1)
        }
        if (s ~ / for /) return ""
        sub(/^[ \t]+/, "", s)
        match(s, /^[A-Za-z_][A-Za-z0-9_:]*/)
        s = substr(s, RSTART, RLENGTH)
        sub(/.*::/, "", s)
        return s
    }

    function ident(s) { sub(/[^A-Za-z0-9_].*/, "", s); return s }

    function item(kind, name) { items[++items_n] = FILENAME " " kind " " name }

    function fn_item(sig, name) {
        item(sig ~ /\([ \t]*(&[ \t]*(\047[A-Za-z_]+[ \t]+)?)?(mut[ \t]+)?self[ \t]*[,:)]/ ? "method" : "assoc", name)
    }

    {
        s = $0
        gsub(/\047([^\047\\]|\\.)\047/, "\047 \047", s)
        gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
        sub(/\/\/.*/, "", s)
        indent = match(s, /[^ ]/) - 1

        # A `#[cfg(test)]` item runs to the line that closes it at its own
        # indentation (or to its `;` when it has no body, its `,` when it is a
        # field).
        if (test_indent < 0 && s ~ /^[ \t]*#\[cfg\(test\)\]/) {
            test_indent = indent; test_open = 0; next
        }
        test = test_indent >= 0
        if (test && indent == test_indent && s !~ /^[ \t]*#/) {
            if (!test_open && s ~ /[;,][ \t]*$/ && s !~ /\{/) test_indent = -1
            else if (test_open && s ~ /^[ \t]*\}/) test_indent = -1
            else if (s ~ /\{/ && s ~ /\}[ \t]*;?[ \t]*$/) test_indent = -1
            else test_open = 1
        }

        if (in_use || s ~ /^[ \t]*pub use /) {
            in_use = s !~ /;/
            next
        }
        if (s ~ /^[ \t]*(pub\([a-z]+\) )?use /) importing = 1
        scan(s, test, importing)
        if (s ~ /;/) importing = 0
        if (test || !(FILENAME in is_def)) next

        if (sig != "") {
            sig = sig " " s
            if (s ~ /[{;]/) { fn_item(sig, sig_name); sig = "" }
            next
        }
        if (indent == 0) {
            if (s ~ /^(unsafe )?impl[ <]/) { owner = impl_type(s); ctx = owner == "" ? "" : "impl" }
            else if (s ~ /^pub (unsafe )?trait /) {
                owner = s; sub(/^pub (unsafe )?trait /, "", owner); owner = ident(owner)
                ctx = "trait"
            } else if (s ~ /^pub struct [A-Za-z0-9_<>, :]*\{$/) {
                owner = s; sub(/^pub struct /, "", owner); owner = ident(owner)
                ctx = "struct"
            } else if (s ~ /^(pub\([a-z]+\) )?(unsafe )?trait / || s ~ /^\}/) ctx = ""
            if (s ~ /^pub ((const|unsafe|async|extern) )*fn / || s ~ /^pub (struct|enum|trait|unsafe trait|type|const|static) /) {
                kind = s; sub(/^pub ((const|unsafe|async|extern) )*/, "", kind)
                if (s !~ /^pub ((const|unsafe|async|extern) )*fn /) { kind = s; sub(/^pub (unsafe )?/, "", kind) }
                name = kind; sub(/ .*/, "", kind); sub(/^[a-z]+ (mut )?/, "", name)
                item(kind, ident(name))
            }
        } else if (indent == 4 && ctx == "impl" && s ~ /^    pub ((const|unsafe|async) )*fn /) {
            sig_name = s; sub(/^    pub ((const|unsafe|async) )*fn /, "", sig_name)
            sig_name = owner "::" ident(sig_name)
            sig = s
            if (s ~ /[{;]/) { fn_item(sig, sig_name); sig = "" }
        } else if (indent == 4 && ctx == "impl" && s ~ /^    pub const [A-Za-z_]/) {
            name = s; sub(/^    pub const /, "", name)
            item("assoc", owner "::" ident(name))
        } else if (indent == 4 && ctx == "struct" && s ~ /^    pub [a-z_0-9]+:/) {
            name = s; sub(/^    pub /, "", name)
            fields[FILENAME " " owner] = fields[FILENAME " " owner] " " owner "::" ident(name)
        } else if (indent == 4 && ctx == "trait" && s ~ /^    (unsafe )?fn /) {
            name = s; sub(/^    (unsafe )?fn /, "", name)
            item("trait-method", owner "::" ident(name))
        }
    }

    # Adds to `found` the places whose files other than `file` mention `name`
    # as `kind`. Non-test code counts anywhere. Unit tests count as callers
    # in another crate (as `<crate>:test`, since `#[cfg(test)]` cannot serve
    # them) and as the "unit tests" column in the defining crate.
    function places(test, kind, name, file,    n, f, i, p, home) {
        home = file; sub(/^crates\//, "", home); sub(/\/.*/, "", home)
        n = split(at[0, kind, name], f, " ")
        for (i = 1; !test && i <= n; i++) {
            split(f[i], p, "=")
            if (p[1] != file) found[p[2]] = 1
        }
        n = split(at[1, kind, name], f, " ")
        for (i = 1; i <= n; i++) {
            split(f[i], p, "=")
            if (!test && p[2] != home) found[p[2] ":test"] = 1
            else if (test && p[2] == home && p[1] != file) found[p[2]] = 1
        }
    }

    # The sorted places that call an item (test = 0) or, in its own crate,
    # only unit-test it (test = 1): space-separated with a leading space, or
    # "" when there are none.
    function callers(test, file, kind, name,    short, module, p, list, n, i, t, out) {
        split("", found)
        short = name; sub(/.*::/, "", short)
        if (kind == "assoc") places(test, "p", name, file)
        else if (kind == "field") places(test, "f", short, file)
        else if (kind == "fn") {
            places(test, "c", name, file)
            module = file; sub(/\/mod\.rs$/, "", module); sub(/\.rs$/, "", module)
            if (module ~ /\/src\/lib$/) {
                # A crate root fn: `pando_<crate>::name` or, through the
                # facade, `<crate>::name`.
                sub(/^crates\//, "", module); sub(/\/.*/, "", module); gsub(/-/, "_", module)
                places(test, "p", "pando_" module "::" name, file)
            } else sub(/.*\//, "", module)
            places(test, "p", module "::" name, file)
        }
        else if (kind == "method" || kind == "trait-method") {
            places(test, "m", short, file); places(test, "p", name, file)
        } else places(test, "w", name, file)
        n = 0
        for (p in found) list[++n] = p
        for (i = 2; i <= n; i++) for (t = i; t > 1 && list[t - 1] > list[t]; t--) {
            p = list[t]; list[t] = list[t - 1]; list[t - 1] = p
        }
        out = ""
        for (i = 1; i <= n; i++) out = out " " list[i]
        return out
    }

    # The groups that stay even when nothing calls them: the modules the
    # paper names and its Table 2 applications.
    function kept(file) {
        if (file ~ /^crates\/pull-stream\/src\/(lender|shard|stubborn)\.rs$/)
            return "paper module"
        if (file ~ /^crates\/workloads\/src\//) return "Table 2 application"
        return ""
    }

    END {
        # A type or trait is also called wherever one of its members (an
        # associated item, or a `pub` field read as `.field`) is.
        for (i = 1; i <= items_n; i++) {
            split(items[i], f, " ")
            if (f[3] ~ /::/) {
                owner = f[3]; sub(/::.*/, "", owner)
                members[f[1] " " owner] = members[f[1] " " owner] " " items[i]
            }
        }
        for (key in fields) {
            n = split(fields[key], m, " ")
            split(key, f, " ")
            for (j = 1; j <= n; j++) members[key] = members[key] " " f[1] " field " m[j]
        }
        for (i = 1; i <= items_n; i++) {
            split(items[i], f, " ")
            live = callers(0, f[1], f[2], f[3])
            if (live == "" && (f[1] " " f[3]) in members) {
                n = split(members[f[1] " " f[3]], m, " ")
                for (j = 1; j + 2 <= n; j += 3) live = live callers(0, m[j], m[j + 1], m[j + 2])
                if (live != "") live = " via members"
            }
            row = items[i] (live == "" ? " -" : live)
            if (live == "") {
                tests = callers(1, f[1], f[2], f[3])
                if (tests != "") row = row " unit tests:" tests
                why = kept(f[1])
                if (why != "") { row = row " kept: " why; kept_n++ } else uncalled_n++
            }
            print row | "sort"
        }
        close("sort")
        printf "# %d items, %d without a caller: %d kept, %d not\n",
            items_n, kept_n + uncalled_n, kept_n, uncalled_n
    }
' $defs $others >"${1:-/dev/stdout}"
