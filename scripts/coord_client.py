#!/usr/bin/env python3
"""Minimal skalla-coord client: send requests over one connection, print
each reply.

    coord_client.py HOST:PORT 'QUERY TEXT'     # query (blank line added)
    coord_client.py HOST:PORT .shutdown        # or .cancel <id>, .metrics
    coord_client.py HOST:PORT '.analyze on' 'QUERY TEXT' ...
    echo 'QUERY' | coord_client.py HOST:PORT   # query from stdin

Each argument after HOST:PORT is one request; they go in order over a
single connection, so per-connection settings such as `.analyze on`
apply to the requests after them. The coordinator's protocol is
line-oriented: query text terminated by a blank line (dot-commands are a
single line), each reply streamed back and terminated by a line reading
"END" (docs/SERVING.md). Exits 0 when every reply arrived whole and
none carries an ERR line, 1 otherwise.
"""

import socket
import sys


def read_reply(sock, buffered):
    """Returns (reply without its END line, bytes read past it, whether
    the END line arrived)."""
    while True:
        if buffered.startswith(b"END\n"):
            return b"", buffered[len(b"END\n"):], True
        end = buffered.find(b"\nEND\n")
        if end >= 0:
            return buffered[:end + 1], buffered[end + len(b"\nEND\n"):], True
        chunk = sock.recv(65536)
        if not chunk:
            return buffered, b"", False
        buffered += chunk


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    host, _, port = sys.argv[1].rpartition(":")
    texts = sys.argv[2:] or [sys.stdin.read()]

    failed = False
    with socket.create_connection((host or "127.0.0.1", int(port))) as sock:
        buffered = b""
        for text in texts:
            text = text.strip("\n")
            request = text + "\n" if text.startswith(".") else text + "\n\n"
            sock.sendall(request.encode())
            reply, buffered, whole = read_reply(sock, buffered)
            body = reply.decode(errors="replace")
            sys.stdout.write(body)
            if not whole or any(
                    line.startswith("ERR") for line in body.splitlines()):
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
